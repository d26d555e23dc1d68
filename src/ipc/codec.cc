#include "src/ipc/codec.h"

#include <algorithm>
#include <mutex>
#include <utility>

namespace clio {

Bytes EncodeLogFileInfo(const LogFileInfo& info) {
  Bytes payload;
  ByteWriter w(&payload);
  w.PutU16(info.id);
  w.PutU64(info.unique_id);
  w.PutU16(info.parent);
  w.PutU32(info.permissions);
  w.PutI64(info.created_at);
  w.PutU8(info.sealed ? 1 : 0);
  w.PutString(info.name);
  return payload;
}

namespace {

Result<LogFileInfo> DecodeLogFileInfo(std::span<const std::byte> payload) {
  ByteReader r(payload);
  LogFileInfo info;
  info.id = r.GetU16();
  info.unique_id = r.GetU64();
  info.parent = r.GetU16();
  info.permissions = r.GetU32();
  info.created_at = r.GetI64();
  info.sealed = r.GetU8() != 0;
  info.name = r.GetString();
  if (r.failed()) {
    return Corrupt("malformed stat reply");
  }
  return info;
}

// Soft cap on one kReadBatch reply's payload bytes, comfortably under the
// net transport's 16 MiB frame-body limit.
constexpr size_t kReadBatchByteBudget = 4 << 20;
// Hard cap on entries per batch regardless of the client's ask.
constexpr uint32_t kReadBatchMaxEntries = 65536;

// Server-side ceiling on one kTraceDump reply: 100k spans encode to about
// 3 MiB, comfortably under the 16 MiB frame-body limit. Doubles as the
// default when the client asks for 0 ("server default").
constexpr uint32_t kTraceDumpMaxSpans = 100'000;

constexpr uint32_t kMaxOp = static_cast<uint32_t>(LogOp::kHealth);

// Per-op request counters, resolved once and indexed by op value so the
// dispatch hot path never touches the registry map.
Counter* RequestCounter(LogOp op) {
  static Counter* counters[kMaxOp + 1] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    counters[0] = ObsRegistry().counter("clio.rpc.requests.unknown");
    for (uint32_t i = 1; i <= kMaxOp; ++i) {
      counters[i] = ObsRegistry().counter(
          "clio.rpc.requests." +
          std::string(LogOpName(static_cast<LogOp>(i))));
    }
  });
  uint32_t index = static_cast<uint32_t>(op);
  return counters[index >= 1 && index <= kMaxOp ? index : 0];
}

// The op's family. Appends and reads are the two the soak bench gates on,
// so each gets a latency histogram (clio.rpc.append_us / clio.rpc.read_us)
// beside the all-ops clio.rpc.request_us, and its own slow-request
// threshold.
RpcClass OpRpcClass(LogOp op) {
  switch (op) {
    case LogOp::kAppend:
      return RpcClass::kAppend;
    case LogOp::kReadNext:
    case LogOp::kReadPrev:
    case LogOp::kReadBatch:
      return RpcClass::kRead;
    default:
      return RpcClass::kOther;
  }
}

// The accounting of one dispatched request. The op's request counter is
// bumped on entry (a kStats request is visible in its own reply). The
// scope's duration — decode + execute + encode, one clock read at each
// end — feeds clio.rpc.request_us, the op's class histogram, the
// kDispatch span and the slow-request ring (telemetry.h), the exemplar
// bridge from latency SLOs back to kTraceDump.
class DispatchScope {
 public:
  explicit DispatchScope(LogOp op)
      : op_(op), trace_id_(CurrentTraceId()), start_us_(TraceNowUs()) {
    RequestCounter(op)->Increment();
  }
  ~DispatchScope() {
    static Histogram* request_us =
        ObsRegistry().histogram("clio.rpc.request_us");
    static Histogram* append_us = ObsRegistry().histogram("clio.rpc.append_us");
    static Histogram* read_us = ObsRegistry().histogram("clio.rpc.read_us");
    const uint64_t dur_us = TraceNowUs() - start_us_;
    RecordStage(request_us, TraceStage::kDispatch, trace_id_, start_us_,
                dur_us);
    const RpcClass op_class = OpRpcClass(op_);
    if (op_class != RpcClass::kOther) {
      (op_class == RpcClass::kAppend ? append_us : read_us)->Record(dur_us);
    }
    SlowRequestRing::Instance().Observe(op_class, LogOpName(op_), trace_id_,
                                        dur_us);
  }
  DispatchScope(const DispatchScope&) = delete;
  DispatchScope& operator=(const DispatchScope&) = delete;

 private:
  LogOp op_;
  uint64_t trace_id_;
  uint64_t start_us_;
};

}  // namespace

std::string_view LogOpName(LogOp op) {
  switch (op) {
    case LogOp::kCreateLogFile:
      return "create_logfile";
    case LogOp::kAppend:
      return "append";
    case LogOp::kOpenReader:
      return "open_reader";
    case LogOp::kCloseReader:
      return "close_reader";
    case LogOp::kReadNext:
      return "read_next";
    case LogOp::kReadPrev:
      return "read_prev";
    case LogOp::kSeekToTime:
      return "seek_to_time";
    case LogOp::kSeekToStart:
      return "seek_to_start";
    case LogOp::kSeekToEnd:
      return "seek_to_end";
    case LogOp::kStat:
      return "stat";
    case LogOp::kForce:
      return "force";
    case LogOp::kStats:
      return "stats";
    case LogOp::kReadBatch:
      return "read_batch";
    case LogOp::kTraceDump:
      return "trace_dump";
    case LogOp::kPartitionInfo:
      return "partition_info";
    case LogOp::kVerifyChain:
      return "verify_chain";
    case LogOp::kHealth:
      return "health";
  }
  return "unknown";
}

Bytes EncodeOkReplyBody(std::span<const std::byte> payload) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU8(static_cast<uint8_t>(StatusCode::kOk));
  w.PutString("");
  w.PutBytes(payload);
  return body;
}

Bytes EncodeErrorReplyBody(const Status& status) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU8(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  return body;
}

Result<Bytes> DecodeReplyBody(std::span<const std::byte> body) {
  ByteReader r(body);
  StatusCode code = static_cast<StatusCode>(r.GetU8());
  std::string message = r.GetString();
  if (r.failed()) {
    return Corrupt("malformed server reply");
  }
  if (code != StatusCode::kOk) {
    return Status(code, std::move(message));
  }
  auto rest = r.GetBytes(r.remaining());
  return Bytes(rest.begin(), rest.end());
}

namespace {

// Record-level halves shared by the single-entry and batch codecs.
// A record arrives in one of two representations (types.h): a flat
// `payload`, or zero-copy `segments` into block images. Both encode to
// the same bytes; kReadNext/kReadPrev replies flatten the segments here.
void AppendEntryRecordMeta(ByteWriter* w, const LogEntryRecord& record) {
  w->PutU16(record.logfile_id);
  w->PutI64(record.timestamp);
  w->PutU8(record.timestamp_exact ? 1 : 0);
  w->PutU32(static_cast<uint32_t>(record.payload_size()));
}

void AppendEntryRecord(ByteWriter* w, const LogEntryRecord& record) {
  AppendEntryRecordMeta(w, record);
  w->PutBytes(record.payload);
  for (const PayloadSegment& segment : record.segments) {
    w->PutBytes(segment.view());
  }
}

RemoteEntry ReadEntryRecord(ByteReader* r) {
  RemoteEntry entry;
  entry.logfile_id = r->GetU16();
  entry.timestamp = r->GetI64();
  entry.timestamp_exact = r->GetU8() != 0;
  uint32_t size = r->GetU32();
  auto data = r->GetBytes(size);
  entry.payload.assign(data.begin(), data.end());
  return entry;
}

}  // namespace

Bytes EncodeEntryRecord(const std::optional<LogEntryRecord>& record) {
  Bytes out;
  ByteWriter w(&out);
  if (!record.has_value()) {
    w.PutU8(0);
    return out;
  }
  w.PutU8(1);
  AppendEntryRecord(&w, *record);
  return out;
}

Result<std::optional<RemoteEntry>> DecodeEntryRecord(
    std::span<const std::byte> payload) {
  ByteReader r(payload);
  if (r.GetU8() == 0) {
    return std::optional<RemoteEntry>(std::nullopt);
  }
  RemoteEntry entry = ReadEntryRecord(&r);
  if (r.failed()) {
    return Corrupt("malformed entry in reply");
  }
  return std::optional<RemoteEntry>(std::move(entry));
}

Bytes EncodeEntryBatch(const std::vector<LogEntryRecord>& records,
                       bool at_end) {
  Bytes out;
  ByteWriter w(&out);
  w.PutU32(static_cast<uint32_t>(records.size()));
  w.PutU8(at_end ? 1 : 0);
  for (const LogEntryRecord& record : records) {
    AppendEntryRecord(&w, record);
  }
  return out;
}

void WireMessage::AddOwned(Bytes bytes) {
  if (bytes.empty()) {
    return;
  }
  total_bytes_ += bytes.size();
  WireSlice slice;
  slice.owned = std::move(bytes);
  slices_.push_back(std::move(slice));
}

void WireMessage::AddBorrowed(PayloadSegment segment) {
  if (segment.length == 0) {
    return;
  }
  total_bytes_ += segment.length;
  borrowed_bytes_ += segment.length;
  WireSlice slice;
  slice.ref = std::move(segment);
  slices_.push_back(std::move(slice));
}

Bytes WireMessage::Flatten() const {
  Bytes out;
  out.reserve(total_bytes_);
  for (const WireSlice& slice : slices_) {
    auto view = slice.view();
    out.insert(out.end(), view.begin(), view.end());
  }
  return out;
}

void EncodeEntryBatchReplyTo(const std::vector<LogEntryRecord>& records,
                             bool at_end, WireMessage* out) {
  // Owned metadata accumulates here and is cut into a slice each time a
  // borrowed payload interleaves. `meta` is re-used after the move; the
  // clear() restores it to a known-empty state.
  Bytes meta;
  ByteWriter w(&meta);
  w.PutU8(static_cast<uint8_t>(StatusCode::kOk));
  w.PutString("");  // EncodeOkReplyBody's empty message
  w.PutU32(static_cast<uint32_t>(records.size()));
  w.PutU8(at_end ? 1 : 0);
  for (const LogEntryRecord& record : records) {
    AppendEntryRecordMeta(&w, record);
    w.PutBytes(record.payload);  // flat records stay inline
    for (const PayloadSegment& segment : record.segments) {
      if (segment.length == 0) {
        continue;
      }
      out->AddOwned(std::move(meta));
      meta.clear();
      out->AddBorrowed(segment);
    }
  }
  out->AddOwned(std::move(meta));
}

Result<EntryBatch> DecodeEntryBatch(std::span<const std::byte> payload) {
  ByteReader r(payload);
  uint32_t count = r.GetU32();
  EntryBatch batch;
  batch.at_end = r.GetU8() != 0;
  batch.entries.reserve(count);
  for (uint32_t i = 0; i < count && !r.failed(); ++i) {
    batch.entries.push_back(ReadEntryRecord(&r));
  }
  if (r.failed() || batch.entries.size() != count) {
    return Corrupt("malformed entry batch in reply");
  }
  return batch;
}

Bytes EncodeAppendRequest(std::string_view path,
                          std::span<const std::byte> payload, bool timestamped,
                          bool force, uint64_t client_id,
                          uint64_t request_seq) {
  Bytes body;
  ByteWriter w(&body);
  w.PutString(path);
  w.PutU8(timestamped ? 1 : 0);
  w.PutU8(force ? 1 : 0);
  w.PutU64(client_id);
  w.PutU64(request_seq);
  w.PutU32(static_cast<uint32_t>(payload.size()));
  w.PutBytes(payload);
  return body;
}

Result<AppendRequest> DecodeAppendRequest(std::span<const std::byte> body) {
  ByteReader r(body);
  AppendRequest request;
  request.path = r.GetString();
  request.timestamped = r.GetU8() != 0;
  request.force = r.GetU8() != 0;
  request.client_id = r.GetU64();
  request.request_seq = r.GetU64();
  uint32_t size = r.GetU32();
  auto data = r.GetBytes(size);
  request.payload.assign(data.begin(), data.end());
  if (r.failed()) {
    return InvalidArgument("malformed append request");
  }
  return request;
}

// ---------------------------------------------------------------------------
// ServiceDispatcher

WireMessage ServiceDispatcher::Dispatch(LogOp op,
                                        std::span<const std::byte> body) {
  DispatchScope scope(op);
  WireMessage reply;
  if (op == LogOp::kReadBatch) {
    ReadBatch(body, &reply);
  } else {
    reply.AddOwned(Execute(op, body));
  }
  return reply;
}

Bytes ServiceDispatcher::Execute(LogOp op, std::span<const std::byte> body) {
  // kStats reads only the (internally synchronized) metrics registry, so
  // it never takes the service mutex — a monitoring poller cannot stall
  // behind a slow force, and vice versa. Process gauges refresh first so
  // every snapshot carries a live sampled_at_us stamp for rate math.
  if (op == LogOp::kStats) {
    UpdateProcessGauges();
    return EncodeOkReplyBody(EncodeStatsSnapshot(ObsRegistry().Snapshot()));
  }

  // kHealth also stays off the service mutex: a wedged service is
  // precisely the state it exists to report.
  if (op == LogOp::kHealth) {
    return EncodeOkReplyBody(EncodeHealthReport(health_fn_()));
  }

  // kTraceDump likewise touches only the flight recorder (lock-free to
  // read), so tracing works even when the service mutex is wedged.
  if (op == LogOp::kTraceDump) {
    ByteReader trace_r(body);
    uint64_t min_total_us = trace_r.GetU64();
    uint32_t max_spans = trace_r.GetU32();
    if (trace_r.failed()) {
      return EncodeErrorReplyBody(InvalidArgument("malformed trace dump"));
    }
    if (max_spans == 0 || max_spans > kTraceDumpMaxSpans) {
      max_spans = kTraceDumpMaxSpans;
    }
    TraceDump dump = FlightRecorder::Instance().Collect(min_total_us,
                                                        max_spans);
    return EncodeOkReplyBody(EncodeTraceDump(dump));
  }

  // kAppend first: the append hook (the group-commit batcher blocks the
  // session until the whole batch is forced) runs outside every service
  // call, and the batch takes the service lock itself.
  if (op == LogOp::kAppend) {
    auto request = DecodeAppendRequest(body);
    if (!request.ok()) {
      return EncodeErrorReplyBody(request.status());
    }
    // Clients may read system logs (the telemetry journal is useless if
    // they cannot) but never write them: a foreign record would corrupt
    // the journal's record stream.
    if (IsReservedSystemPath(request->path)) {
      return EncodeErrorReplyBody(PermissionDenied(
          "'" + request->path + "' is a reserved system log (" +
          std::string(kReservedSystemRoot) +
          " is service-owned); appends are server-internal only"));
    }
    // The batcher's commit thread has no access to this thread's trace
    // context; the request carries it over the hop.
    request->trace_id = CurrentTraceId();
    Result<AppendResult> result = append_fn_(*request);
    if (!result.ok()) {
      return EncodeErrorReplyBody(result.status());
    }
    Bytes payload;
    ByteWriter w(&payload);
    w.PutI64(result->timestamp);
    return EncodeOkReplyBody(payload);
  }

  // Every remaining op runs through the service, which takes whatever lock
  // its target requires per call (kCloseReader touches only the
  // session-local reader table and needs none).
  ByteReader r(body);
  switch (op) {
    case LogOp::kCreateLogFile: {
      std::string path = r.GetString();
      uint32_t permissions = r.GetU32();
      if (r.failed()) {
        return EncodeErrorReplyBody(InvalidArgument("malformed create"));
      }
      if (IsReservedSystemPath(path)) {
        return EncodeErrorReplyBody(PermissionDenied(
            "'" + path + "' is under the reserved " +
            std::string(kReservedSystemRoot) +
            " namespace (service-owned system logs such as the telemetry "
            "journal); pick a path outside it"));
      }
      // Trailing placement field (CreateLogFilePlaced); requests encoded
      // before it read as "the service's choice".
      std::optional<uint32_t> placement;
      if (r.remaining() >= 4) {
        uint32_t raw = r.GetU32();
        if (raw != kNoPartitionPlacement) {
          placement = raw;
        }
      }
      // Ids are partition-local, so the reply carries the leaf's id on its
      // home partition (clients address by path; the id is informational).
      LogFileId id = kNoLogFileId;
      auto home = service_->CreateLogFile(path, permissions, placement, &id);
      if (!home.ok()) {
        return EncodeErrorReplyBody(home.status());
      }
      Bytes payload;
      ByteWriter w(&payload);
      w.PutU16(id);
      return EncodeOkReplyBody(payload);
    }
    case LogOp::kAppend:
    case LogOp::kStats:
    case LogOp::kTraceDump:
    case LogOp::kHealth:
    case LogOp::kReadBatch:
      break;  // handled above, or by Dispatch
    case LogOp::kPartitionInfo: {
      std::string path = r.GetString();
      if (r.failed()) {
        return EncodeErrorReplyBody(
            InvalidArgument("malformed partition info request"));
      }
      std::optional<uint32_t> home;
      if (!path.empty() && path != "/") {
        home = service_->RouteOf(path);
      }
      Bytes payload;
      ByteWriter w(&payload);
      w.PutU32(service_->partition_count());
      w.PutU8(home.has_value() ? 1 : 0);
      w.PutU32(home.value_or(0));
      return EncodeOkReplyBody(payload);
    }
    case LogOp::kOpenReader: {
      std::string path = r.GetString();
      auto reader = service_->OpenReader(path);
      if (!reader.ok()) {
        return EncodeErrorReplyBody(reader.status());
      }
      uint64_t handle = next_handle_++;
      reader.value()->set_zero_copy(true);
      readers_[handle] = std::move(reader).value();
      Bytes payload;
      ByteWriter w(&payload);
      w.PutU64(handle);
      return EncodeOkReplyBody(payload);
    }
    case LogOp::kCloseReader: {
      uint64_t handle = r.GetU64();
      readers_.erase(handle);
      return EncodeOkReplyBody();
    }
    case LogOp::kReadNext:
    case LogOp::kReadPrev: {
      uint64_t handle = r.GetU64();
      auto it = readers_.find(handle);
      if (it == readers_.end()) {
        return EncodeErrorReplyBody(NotFound("no such reader handle"));
      }
      auto record =
          op == LogOp::kReadNext ? it->second->Next() : it->second->Prev();
      if (!record.ok()) {
        return EncodeErrorReplyBody(record.status());
      }
      return EncodeOkReplyBody(EncodeEntryRecord(record.value()));
    }
    case LogOp::kSeekToTime: {
      uint64_t handle = r.GetU64();
      Timestamp t = r.GetI64();
      if (r.failed()) {
        return EncodeErrorReplyBody(InvalidArgument("malformed seek"));
      }
      auto it = readers_.find(handle);
      if (it == readers_.end()) {
        return EncodeErrorReplyBody(NotFound("no such reader handle"));
      }
      Status status = it->second->SeekToTime(t);
      return status.ok() ? EncodeOkReplyBody() : EncodeErrorReplyBody(status);
    }
    case LogOp::kSeekToStart:
    case LogOp::kSeekToEnd: {
      uint64_t handle = r.GetU64();
      auto it = readers_.find(handle);
      if (it == readers_.end()) {
        return EncodeErrorReplyBody(NotFound("no such reader handle"));
      }
      if (op == LogOp::kSeekToStart) {
        it->second->SeekToStart();
      } else {
        it->second->SeekToEnd();
      }
      return EncodeOkReplyBody();
    }
    case LogOp::kVerifyChain: {
      std::string path = r.GetString();
      Timestamp t = r.GetI64();
      if (r.failed()) {
        return EncodeErrorReplyBody(
            InvalidArgument("malformed verify chain request"));
      }
      auto proof = service_->BuildChainProof(path, t);
      if (!proof.ok()) {
        return EncodeErrorReplyBody(proof.status());
      }
      Bytes payload;
      ByteWriter w(&payload);
      proof->EncodeTo(w);
      return EncodeOkReplyBody(payload);
    }
    case LogOp::kStat: {
      std::string path = r.GetString();
      auto info = service_->Stat(path);
      if (!info.ok()) {
        return EncodeErrorReplyBody(info.status());
      }
      return EncodeOkReplyBody(EncodeLogFileInfo(info.value()));
    }
    case LogOp::kForce: {
      Status status = service_->Force();
      return status.ok() ? EncodeOkReplyBody() : EncodeErrorReplyBody(status);
    }
  }
  return EncodeErrorReplyBody(Unimplemented("unknown log server op"));
}

void ServiceDispatcher::ReadBatch(std::span<const std::byte> body,
                                  WireMessage* out) {
  ByteReader r(body);
  uint64_t handle = r.GetU64();
  uint32_t max_entries = r.GetU32();
  if (r.failed() || max_entries == 0) {
    out->AddOwned(
        EncodeErrorReplyBody(InvalidArgument("malformed batch read")));
    return;
  }
  auto it = readers_.find(handle);
  if (it == readers_.end()) {
    out->AddOwned(EncodeErrorReplyBody(NotFound("no such reader handle")));
    return;
  }
  max_entries = std::min(max_entries, kReadBatchMaxEntries);
  std::vector<LogEntryRecord> records;
  size_t bytes = 0;
  bool at_end = false;
  while (records.size() < max_entries && bytes < kReadBatchByteBudget) {
    auto record = it->second->Next();
    if (!record.ok()) {
      // Mid-batch failure: return the prefix that DID read; a clean
      // error only if nothing did. The reader is positioned after the
      // prefix, so the client's next call surfaces the error itself.
      if (records.empty()) {
        out->AddOwned(EncodeErrorReplyBody(record.status()));
        return;
      }
      break;
    }
    if (!record.value().has_value()) {
      at_end = true;
      break;
    }
    bytes += record.value()->payload_size() + 16;
    records.push_back(std::move(*record.value()));
  }
  EncodeEntryBatchReplyTo(records, at_end, out);
}

// ---------------------------------------------------------------------------
// LogClientBase

Result<LogFileId> LogClientBase::CreateLogFile(std::string_view path,
                                               uint32_t permissions) {
  Bytes body;
  ByteWriter w(&body);
  w.PutString(path);
  w.PutU32(permissions);
  CLIO_ASSIGN_OR_RETURN(Bytes payload, Call(LogOp::kCreateLogFile, body));
  ByteReader r(payload);
  return static_cast<LogFileId>(r.GetU16());
}

Result<LogFileId> LogClientBase::CreateLogFilePlaced(std::string_view path,
                                                     uint32_t permissions,
                                                     uint32_t partition) {
  Bytes body;
  ByteWriter w(&body);
  w.PutString(path);
  w.PutU32(permissions);
  w.PutU32(partition);
  CLIO_ASSIGN_OR_RETURN(Bytes payload, Call(LogOp::kCreateLogFile, body));
  ByteReader r(payload);
  return static_cast<LogFileId>(r.GetU16());
}

Result<PartitionInfoResult> LogClientBase::GetPartitionInfo(
    std::string_view path) {
  Bytes body;
  ByteWriter w(&body);
  w.PutString(path);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kPartitionInfo, body));
  ByteReader r(reply);
  PartitionInfoResult info;
  info.partition_count = r.GetU32();
  bool has_route = r.GetU8() != 0;
  uint32_t partition = r.GetU32();
  if (r.failed()) {
    return Corrupt("malformed partition info reply");
  }
  if (has_route) {
    info.partition = partition;
  }
  return info;
}

Result<Timestamp> LogClientBase::Append(std::string_view path,
                                        std::span<const std::byte> payload,
                                        bool timestamped, bool force) {
  auto [client_id, request_seq] = NextAppendStamp();
  CLIO_ASSIGN_OR_RETURN(
      Bytes reply,
      Call(LogOp::kAppend, EncodeAppendRequest(path, payload, timestamped,
                                               force, client_id, request_seq)));
  ByteReader r(reply);
  return r.GetI64();
}

Result<uint64_t> LogClientBase::OpenReader(std::string_view path) {
  Bytes body;
  ByteWriter w(&body);
  w.PutString(path);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kOpenReader, body));
  ByteReader r(reply);
  return r.GetU64();
}

Status LogClientBase::CloseReader(uint64_t handle) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(handle);
  return Call(LogOp::kCloseReader, body).status();
}

Result<std::optional<RemoteEntry>> LogClientBase::ReadNext(uint64_t handle) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(handle);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kReadNext, body));
  return DecodeEntryRecord(reply);
}

Result<std::optional<RemoteEntry>> LogClientBase::ReadPrev(uint64_t handle) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(handle);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kReadPrev, body));
  return DecodeEntryRecord(reply);
}

Result<EntryBatch> LogClientBase::ReadNextBatch(uint64_t handle,
                                                uint32_t max_entries) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(handle);
  w.PutU32(max_entries);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kReadBatch, body));
  return DecodeEntryBatch(reply);
}

Result<std::optional<RemoteEntry>> BatchedReader::Next() {
  if (pos_ >= buffer_.size()) {
    if (at_end_) {
      // The server already said end-of-log: report it without another
      // round trip, but re-poll on the NEXT call (a tailing reader may
      // find fresh entries then).
      at_end_ = false;
      return std::optional<RemoteEntry>(std::nullopt);
    }
    CLIO_ASSIGN_OR_RETURN(EntryBatch batch,
                          client_->ReadNextBatch(handle_, batch_size_));
    buffer_ = std::move(batch.entries);
    pos_ = 0;
    at_end_ = batch.at_end;
    if (buffer_.empty()) {
      at_end_ = false;
      return std::optional<RemoteEntry>(std::nullopt);
    }
  }
  return std::optional<RemoteEntry>(std::move(buffer_[pos_++]));
}

Status LogClientBase::SeekToTime(uint64_t handle, Timestamp t) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(handle);
  w.PutI64(t);
  return Call(LogOp::kSeekToTime, body).status();
}

Status LogClientBase::SeekToStart(uint64_t handle) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(handle);
  return Call(LogOp::kSeekToStart, body).status();
}

Status LogClientBase::SeekToEnd(uint64_t handle) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(handle);
  return Call(LogOp::kSeekToEnd, body).status();
}

Result<LogFileInfo> LogClientBase::Stat(std::string_view path) {
  Bytes body;
  ByteWriter w(&body);
  w.PutString(path);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kStat, body));
  return DecodeLogFileInfo(reply);
}

Status LogClientBase::Force() { return Call(LogOp::kForce, {}).status(); }

Result<ChainProof> LogClientBase::FetchChainProof(std::string_view path,
                                                  Timestamp t) {
  Bytes body;
  ByteWriter w(&body);
  w.PutString(path);
  w.PutI64(t);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kVerifyChain, body));
  ByteReader r(reply);
  return ChainProof::DecodeFrom(r);
}

Result<RemoteEntry> LogClientBase::VerifyEntry(std::string_view path,
                                               Timestamp t) {
  CLIO_ASSIGN_OR_RETURN(ChainProof proof, FetchChainProof(path, t));
  CLIO_ASSIGN_OR_RETURN(ParsedEntry entry, proof.Verify());
  // The proof binds the record to the chain; this binds the record to the
  // question asked. A server pointing the proof at some OTHER (genuine)
  // entry fails here.
  if (!entry.timestamp.has_value() || *entry.timestamp != t) {
    return Corrupt("proven entry does not carry the requested timestamp");
  }
  RemoteEntry out;
  out.logfile_id = entry.logfile_id;
  out.timestamp = *entry.timestamp;
  out.timestamp_exact = true;
  out.payload.assign(entry.payload.begin(), entry.payload.end());
  return out;
}

Result<StatsSnapshot> LogClientBase::GetStats() {
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kStats, {}));
  return DecodeStatsSnapshot(reply);
}

Result<HealthReport> LogClientBase::GetHealth() {
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kHealth, {}));
  return DecodeHealthReport(reply);
}

Result<TraceDump> LogClientBase::DumpTraces(uint64_t min_total_us,
                                            uint32_t max_spans) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(min_total_us);
  w.PutU32(max_spans);
  CLIO_ASSIGN_OR_RETURN(Bytes reply, Call(LogOp::kTraceDump, body));
  return DecodeTraceDump(reply);
}

}  // namespace clio
