// Wire codec of the log service.
//
// The TCP server and client (src/net/*) exchange these request/reply
// bodies inside frames (src/net/frame.h). This header is the single
// definition of that encoding, plus the two halves built on it:
//
//  - ServiceDispatcher: the server side. Decodes one request body,
//    executes it against a PartitionedLogService (a plain LogService is
//    served as its one-partition view), encodes the reply. One instance
//    per client session (it owns that session's reader table).
//  - LogClientBase: the client side. All typed stub methods, over an
//    abstract Call(op, body) the transport implements.
//
// Reply bodies carry: u8 status code, u16-length-prefixed message string,
// then an op-specific payload.
#ifndef SRC_IPC_CODEC_H_
#define SRC_IPC_CODEC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/clio/log_service.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/obs/trace.h"
#include "src/partition/partitioned_service.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace clio {

// Wire operations.
enum class LogOp : uint32_t {
  kCreateLogFile = 1,
  kAppend = 2,
  kOpenReader = 3,
  kCloseReader = 4,
  kReadNext = 5,
  kReadPrev = 6,
  kSeekToTime = 7,
  kSeekToStart = 8,
  kSeekToEnd = 9,
  kStat = 10,
  kForce = 11,
  // Versioned snapshot of the process-wide MetricsRegistry (empty request
  // body; reply payload = EncodeStatsSnapshot). The request is counted in
  // the per-op metrics BEFORE the snapshot is taken, so a STATS reply
  // always includes itself.
  kStats = 12,
  // Batched forward read: up to `max_entries` consecutive entries of one
  // reader handle in a single round trip (request: u64 handle, u32
  // max_entries; reply payload = entry batch). Amortizes framing and
  // syscalls for tail scans; see LogClientBase::ReadNextBatch.
  kReadBatch = 13,
  // Dump of the server's flight recorder (src/obs/trace.h). Request: u64
  // min_total_us (slow-request filter; 0 = everything), u32 max_spans
  // (reply budget; 0 = server default). Reply payload = EncodeTraceDump.
  // Like kStats it never takes the service mutex, so tracing a wedged
  // server works.
  kTraceDump = 14,
  // Partition topology of the server (src/partition/). Request: string
  // path ("" = topology only). Reply payload: u32 partition_count, u8
  // has_route, u32 home partition of the path (valid when has_route = 1).
  // "/" and paths no partition knows have no route.
  kPartitionInfo = 15,
  // Single-entry inclusion proof (DESIGN.md §15): the server proves that
  // the entry of `path` with exact timestamp `t` is committed to by the
  // volume hash chain, without the client reading the volume. Request:
  // string path, i64 timestamp. Reply payload = ChainProof::EncodeTo. The
  // client verifies with ChainProof::Verify (see
  // LogClientBase::VerifyEntry); kFailedPrecondition on unchained (v1)
  // volumes, kCorrupt when the server detects a broken chain while
  // building the proof.
  kVerifyChain = 16,
  // Health of the server against its SLO rules (src/obs/telemetry.h).
  // Request: empty. Reply payload = EncodeHealthReport: overall
  // OK/DEGRADED/UNHEALTHY, machine-readable breach reasons, and slow-
  // request exemplars (trace ids usable with kTraceDump). Like kStats it
  // never takes the service mutex, so health-checking a wedged server
  // works — that wedge is exactly what it exists to report.
  kHealth = 17,
};

// Stable lowercase metric-label name for an op ("append", "stats", ...);
// "unknown" for out-of-range values.
std::string_view LogOpName(LogOp op);

// A log entry as unmarshalled by a client stub.
struct RemoteEntry {
  LogFileId logfile_id = kNoLogFileId;
  Timestamp timestamp = 0;
  bool timestamp_exact = false;
  Bytes payload;
};

// -- Reply bodies. --
Bytes EncodeOkReplyBody(std::span<const std::byte> payload = {});
Bytes EncodeErrorReplyBody(const Status& status);
// Splits a reply body into its payload, or the error it carries.
Result<Bytes> DecodeReplyBody(std::span<const std::byte> body);

// -- Scatter-gather reply bodies (the zero-copy reply path). --
//
// A WireMessage is a reply body held as a sequence of slices: owned bytes
// (status prefix, record metadata) interleaved with borrowed views into
// block images, whose frames the slices hold cached until the flush.
// The event-loop server flushes one with writev(), so borrowed
// payload bytes go from the block image straight to the socket without an
// intermediate copy. Flatten() produces the contiguous form, byte-identical
// to what the flat encoders below produce for the same records.
struct WireSlice {
  Bytes owned;         // used when ref.image is empty
  PayloadSegment ref;  // borrowed view otherwise
  bool borrowed() const { return static_cast<bool>(ref.image); }
  std::span<const std::byte> view() const {
    return borrowed() ? ref.view() : std::span<const std::byte>(owned);
  }
};

class WireMessage {
 public:
  const std::vector<WireSlice>& slices() const { return slices_; }
  size_t total_bytes() const { return total_bytes_; }
  // Bytes that will be written directly from block images (the zero-copy
  // savings; feeds clio.net.reply.zerocopy_bytes).
  size_t borrowed_bytes() const { return borrowed_bytes_; }

  void AddOwned(Bytes bytes);
  void AddBorrowed(PayloadSegment segment);

  // Contiguous form, byte-identical to what a flat encoder would have
  // produced.
  Bytes Flatten() const;

 private:
  std::vector<WireSlice> slices_;
  size_t total_bytes_ = 0;
  size_t borrowed_bytes_ = 0;
};

// -- Entry records (the reply payload of kReadNext / kReadPrev). --
Bytes EncodeEntryRecord(const std::optional<LogEntryRecord>& record);
Result<std::optional<RemoteEntry>> DecodeEntryRecord(
    std::span<const std::byte> payload);

// -- Entry batches (the reply payload of kReadBatch). --
//
// A batch may come back shorter than requested for two reasons the client
// must distinguish: the server hit the end of the log (`at_end`, no point
// asking again until more is appended), or it hit the reply byte budget
// (ask again to continue).
struct EntryBatch {
  std::vector<RemoteEntry> entries;
  bool at_end = false;
};
// The flat batch encoder. The server replies through
// EncodeEntryBatchReplyTo below; this form, with EncodeOkReplyBody,
// EncodeEntryRecord, EncodeErrorReplyBody and EncodeLogFileInfo, is the
// reference implementation of the reply bytes that the wire-equivalence
// test (tests/event_loop_test.cc) checks the scatter replies against.
Bytes EncodeEntryBatch(const std::vector<LogEntryRecord>& records,
                       bool at_end);
Result<EntryBatch> DecodeEntryBatch(std::span<const std::byte> payload);

// Scatter form of EncodeOkReplyBody(EncodeEntryBatch(records, at_end)):
// record metadata accumulates in owned slices; payloads carried as
// PayloadSegments (zero-copy readers) become borrowed slices referencing
// the block images directly. Byte-identical to the flat form after
// Flatten(); records with flat payloads are inlined into the metadata
// slice unchanged.
void EncodeEntryBatchReplyTo(const std::vector<LogEntryRecord>& records,
                             bool at_end, WireMessage* out);

// -- Log file metadata (the reply payload of kStat). --
Bytes EncodeLogFileInfo(const LogFileInfo& info);

// -- Append requests (the request body of kAppend). --
//
// `client_id` / `request_seq` are the idempotency stamp for retried
// appends: a client that retransmits an append after a lost reply reuses
// the stamp, and a server keeping a dedup window acknowledges the
// retransmit with the original result instead of logging the entry twice.
// A zero client_id means "unstamped" (no retry dedup; clients without
// retransmission use this).
struct AppendRequest {
  std::string path;
  bool timestamped = false;
  bool force = false;
  uint64_t client_id = 0;
  uint64_t request_seq = 0;
  Bytes payload;
  // Not on the wire (the frame header carries it): the dispatcher copies
  // its thread's trace context here so an append handed to the batcher's
  // commit thread keeps its trace across the thread hop.
  uint64_t trace_id = 0;
};
Bytes EncodeAppendRequest(std::string_view path,
                          std::span<const std::byte> payload, bool timestamped,
                          bool force, uint64_t client_id = 0,
                          uint64_t request_seq = 0);
Result<AppendRequest> DecodeAppendRequest(std::span<const std::byte> body);

// Decoded form of a kPartitionInfo reply.
struct PartitionInfoResult {
  uint32_t partition_count = 1;
  // Home partition of the queried path; unset when no path was given.
  std::optional<uint32_t> partition;
};

// "No explicit placement" sentinel in a kCreateLogFile body's trailing
// placement field (see LogClientBase::CreateLogFilePlaced).
constexpr uint32_t kNoPartitionPlacement = 0xFFFFFFFFu;

// Executes decoded requests against a PartitionedLogService and encodes
// replies. Malformed bodies produce error replies, never crashes.
//
// Thread safety: the dispatcher itself is confined to one session (its
// reader table is unsynchronized). The dispatcher takes no service lock:
// every LogService call locks for itself (DESIGN.md §12), so a request
// holds only the owning partition's lock, SHARED for reads and EXCLUSIVE
// for mutations, and only for that call. kCloseReader touches only the
// session-local reader table; kStats reads only the internally
// synchronized metrics registry; kTraceDump only the flight recorder.
class ServiceDispatcher {
 public:
  using AppendFn =
      std::function<Result<AppendResult>(const AppendRequest& request)>;
  using HealthFn = std::function<HealthReport()>;

  // `service` must outlive the dispatcher. Every kAppend goes through
  // `append_fn` (the server's dedup + group-commit hook) and every kHealth
  // through `health_fn` (the server's windowed SLO evaluator); both must
  // be callable.
  ServiceDispatcher(PartitionedLogService* service, AppendFn append_fn,
                    HealthFn health_fn)
      : service_(service),
        append_fn_(std::move(append_fn)),
        health_fn_(std::move(health_fn)) {}

  // Executes one request and returns its reply body. A kReadBatch reply
  // holds owned record metadata and borrowed payload slices over the
  // pinned block images (the readers this dispatcher opens are
  // zero-copy); every other reply is one owned slice.
  WireMessage Dispatch(LogOp op, std::span<const std::byte> body);

 private:
  // Every op but kReadBatch: returns the flat reply body.
  Bytes Execute(LogOp op, std::span<const std::byte> body);
  void ReadBatch(std::span<const std::byte> body, WireMessage* out);

  PartitionedLogService* service_;
  AppendFn append_fn_;
  HealthFn health_fn_;
  std::map<uint64_t, std::unique_ptr<PartitionedLogReader>> readers_;
  uint64_t next_handle_ = 1;
};

// Typed client stub; transports supply Call(). The reader-facing methods
// are virtual so a transport that virtualizes reader handles (the TCP
// client re-establishes readers across reconnects) can interpose; the
// base implementations are plain one-shot round trips.
class LogClientBase {
 public:
  virtual ~LogClientBase() = default;

  Result<LogFileId> CreateLogFile(std::string_view path,
                                  uint32_t permissions = 0644);
  // CreateLogFile with an explicit home partition (tests pinning placement
  // on a partitioned server; see src/partition/). The placement rides as a
  // trailing field old servers ignore; a partitioned server rejects
  // placements outside its range.
  Result<LogFileId> CreateLogFilePlaced(std::string_view path,
                                        uint32_t permissions,
                                        uint32_t partition);
  // Partition topology (kPartitionInfo): how many partitions the server
  // runs, and — when `path` is nonempty — which one owns that log file.
  Result<PartitionInfoResult> GetPartitionInfo(std::string_view path = "");
  // Returns the server-assigned timestamp (the entry's unique id for
  // synchronous writers, §2.1).
  Result<Timestamp> Append(std::string_view path,
                           std::span<const std::byte> payload,
                           bool timestamped = false, bool force = false);
  virtual Result<uint64_t> OpenReader(std::string_view path);
  virtual Status CloseReader(uint64_t handle);
  virtual Result<std::optional<RemoteEntry>> ReadNext(uint64_t handle);
  virtual Result<std::optional<RemoteEntry>> ReadPrev(uint64_t handle);
  // Up to `max_entries` consecutive entries in one round trip (kReadBatch).
  // Prefer iterating via BatchedReader, which refills transparently.
  virtual Result<EntryBatch> ReadNextBatch(uint64_t handle,
                                           uint32_t max_entries);
  virtual Status SeekToTime(uint64_t handle, Timestamp t);
  virtual Status SeekToStart(uint64_t handle);
  virtual Status SeekToEnd(uint64_t handle);
  Result<LogFileInfo> Stat(std::string_view path);
  Status Force();
  // Raw inclusion proof for the entry of `path` with exact timestamp `t`
  // (kVerifyChain), undecoded beyond framing. Most callers want
  // VerifyEntry below, which also checks the proof.
  Result<ChainProof> FetchChainProof(std::string_view path, Timestamp t);
  // Fetches the proof AND verifies it client-side (ChainProof::Verify):
  // recomputes the record hash, reassembles the block commit, and links to
  // the head tag — then cross-checks that the proven entry really carries
  // timestamp `t`. Returns the proven entry; kCorrupt if the proof does
  // not hold up (a tampered volume, or a server lying about the entry).
  Result<RemoteEntry> VerifyEntry(std::string_view path, Timestamp t);
  // Fetches the server's metrics snapshot (counters, gauges, latency
  // histograms) via the kStats op.
  Result<StatsSnapshot> GetStats();
  // Fetches recent spans from the server's flight recorder (kTraceDump).
  // `min_total_us` > 0 keeps only requests at least that slow end to end;
  // `max_spans` > 0 bounds the reply (newest spans win), 0 accepts the
  // server's default budget.
  Result<TraceDump> DumpTraces(uint64_t min_total_us = 0,
                               uint32_t max_spans = 0);
  // Fetches the server's SLO health report (kHealth): overall state,
  // breach reasons, and slow-request trace-id exemplars.
  Result<HealthReport> GetHealth();

 protected:
  // One request/reply round trip; returns the reply payload or the error
  // status the server (or the transport) produced.
  virtual Result<Bytes> Call(LogOp op, const Bytes& body) = 0;

  // The idempotency stamp Append() attaches to its request. The default
  // (0, 0) marks the append unstamped; transports with retransmission
  // override this with a stable client id and a fresh sequence per append.
  virtual std::pair<uint64_t, uint64_t> NextAppendStamp() { return {0, 0}; }
};

// Pull-style forward iterator over a reader handle, fetching kReadBatch
// batches of `batch_size` entries and draining them locally: a 10k-entry
// tail scan costs ~10k/batch_size round trips instead of 10k. Safe for
// tailing: after the server reports end-of-log, the next Next() past the
// drained buffer returns nullopt once without an extra RPC, and the call
// after that re-polls the server for newly appended entries.
class BatchedReader {
 public:
  BatchedReader(LogClientBase* client, uint64_t handle,
                uint32_t batch_size = 32)
      : client_(client), handle_(handle), batch_size_(batch_size) {}

  // The next entry, or nullopt at (the current) end of the log.
  Result<std::optional<RemoteEntry>> Next();

 private:
  LogClientBase* client_;
  uint64_t handle_;
  uint32_t batch_size_;
  std::vector<RemoteEntry> buffer_;
  size_t pos_ = 0;
  bool at_end_ = false;  // last refill hit end-of-log
};

}  // namespace clio

#endif  // SRC_IPC_CODEC_H_
