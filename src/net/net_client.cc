#include "src/net/net_client.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace clio {
namespace {

// splitmix64 finalizer: spreads (client_id, request_id) into a trace id
// that is unique across clients with overwhelming probability and never 0.
uint64_t MixTraceId(uint64_t client_id, uint64_t request_id) {
  uint64_t z = client_id + 0x9E3779B97F4A7C15ull * request_id;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

// Process-unique nonzero identity for auto-assigned client ids. Mixing in
// the clock keeps ids distinct across processes sharing one server.
uint64_t GenerateClientId() {
  static std::atomic<uint64_t> counter{0};
  std::random_device rd;
  uint64_t id = (static_cast<uint64_t>(rd()) << 32) ^ rd();
  id ^= static_cast<uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  id ^= counter.fetch_add(1) + 1;
  return id == 0 ? 1 : id;
}

StatusCode CodeOf(const Status& status) { return status.code(); }
template <typename T>
StatusCode CodeOf(const Result<T>& result) {
  return result.status().code();
}

}  // namespace

NetLogClient::NetLogClient(TcpSocket socket, uint16_t port,
                           const NetClientOptions& options, uint64_t client_id)
    : port_(port), options_(options), client_id_(client_id),
      socket_(std::move(socket)) {}

Result<std::unique_ptr<NetLogClient>> NetLogClient::Connect(
    uint16_t port, const NetClientOptions& options) {
  CLIO_ASSIGN_OR_RETURN(TcpSocket socket, TcpSocket::ConnectLoopback(port));
  if (options.io_timeout_ms > 0) {
    CLIO_RETURN_IF_ERROR(socket.SetIoTimeout(options.io_timeout_ms));
  }
  uint64_t client_id =
      options.client_id != 0 ? options.client_id : GenerateClientId();
  return std::unique_ptr<NetLogClient>(
      new NetLogClient(std::move(socket), port, options, client_id));
}

void NetLogClient::Disconnect() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  socket_.ShutdownBoth();
  socket_.Close();
}

Status NetLogClient::EnsureConnectedLocked() {
  if (closed_) {
    return Unavailable("client disconnected");
  }
  if (socket_.valid()) {
    return Status::Ok();
  }
  CLIO_ASSIGN_OR_RETURN(TcpSocket socket, TcpSocket::ConnectLoopback(port_));
  if (options_.io_timeout_ms > 0) {
    CLIO_RETURN_IF_ERROR(socket.SetIoTimeout(options_.io_timeout_ms));
  }
  socket_ = std::move(socket);
  // The old connection's server-side session (and its reader table) is
  // gone; readers notice via this generation bump and re-establish.
  generation_.fetch_add(1);
  reconnects_.fetch_add(1);
  static Counter* reconnects =
      ObsRegistry().counter("clio.net.client.reconnects");
  reconnects->Increment();
  return Status::Ok();
}

Result<Bytes> NetLogClient::RoundTripLocked(const Bytes& frame,
                                            uint64_t request_id) {
  // Any failure below poisons the connection: we can no longer know where
  // frame boundaries are, so drop the socket and let the caller's retry
  // loop reconnect.
  auto fail = [this](Status status) -> Result<Bytes> {
    socket_.Close();
    return status;
  };
  Status sent = socket_.WriteAll(frame);
  if (!sent.ok()) {
    return fail(std::move(sent));
  }
  Bytes reply_header_buf(kFrameHeaderSize);
  auto n = socket_.ReadFull(reply_header_buf);
  if (!n.ok()) {
    return fail(n.status());
  }
  if (*n != kFrameHeaderSize) {
    return fail(Unavailable("server closed the connection"));
  }
  auto reply_header = DecodeFramePrefix(reply_header_buf);
  if (!reply_header.ok()) {
    return fail(reply_header.status());
  }
  const size_t ext_size = FrameExtensionSize(reply_header->version);
  if (ext_size > 0) {
    Bytes ext_buf(ext_size);
    n = socket_.ReadFull(ext_buf);
    if (!n.ok()) {
      return fail(n.status());
    }
    if (*n != ext_size) {
      return fail(Unavailable("server closed mid-header"));
    }
    Status ext = DecodeFrameExtension(ext_buf, &reply_header.value());
    if (!ext.ok()) {
      return fail(std::move(ext));
    }
  }
  if (reply_header->request_id != request_id) {
    return fail(Corrupt("reply for a different request id"));
  }
  Bytes reply_body(reply_header->body_size);
  if (reply_header->body_size > 0) {
    n = socket_.ReadFull(reply_body);
    if (!n.ok()) {
      return fail(n.status());
    }
    if (*n != reply_header->body_size) {
      return fail(Unavailable("server closed mid-reply"));
    }
  }
  return reply_body;
}

Result<Bytes> NetLogClient::Call(LogOp op, const Bytes& body) {
  std::lock_guard<std::mutex> lock(mu_);
  static Counter* calls = ObsRegistry().counter("clio.net.client.calls");
  static Histogram* call_us =
      ObsRegistry().histogram("clio.net.client.call_us");
  calls->Increment();
  FrameHeader header;
  header.op = static_cast<uint32_t>(op);
  header.request_id = next_request_id_++;
  header.trace_id = MixTraceId(client_id_, header.request_id);
  last_trace_id_.store(header.trace_id);
  StageTimer timer(call_us, TraceStage::kClientCall, header.trace_id);
  // Encoded once: a retransmitted append carries the identical
  // (client_id, request_seq) stamp — which is what makes the server-side
  // dedup work — and the identical trace id, so every attempt of one
  // logical request lands in the same server-side trace.
  const Bytes frame = EncodeFrame(header, body);

  uint64_t backoff_ms = options_.retry.initial_backoff_ms;
  Status last = Unavailable("no attempts made");
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      retries_.fetch_add(1);
      static Counter* retries =
          ObsRegistry().counter("clio.net.client.retries");
      retries->Increment();
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options_.retry.max_backoff_ms);
    }
    Status connected = EnsureConnectedLocked();
    if (!connected.ok()) {
      if (closed_) {
        return connected;  // Disconnect() is deliberate; don't retry
      }
      last = std::move(connected);
      continue;
    }
    auto raw = RoundTripLocked(frame, header.request_id);
    if (!raw.ok()) {
      last = raw.status();
      continue;
    }
    auto reply = DecodeReplyBody(*raw);
    if (reply.ok() || reply.status().code() != StatusCode::kUnavailable) {
      return reply;  // success, or a definitive server-side error
    }
    // kUnavailable from the server proper (e.g. a transient device
    // fault): the connection is fine, the operation is worth retrying.
    last = reply.status();
  }
  return last;
}

// ---------------------------------------------------------------------------
// Virtualized readers

Status NetLogClient::ReestablishReader(ReaderState* state) {
  // Capture the generation first: if a reconnect happens during the
  // replay below, the captured value is already stale and WithReader's
  // loop re-establishes once more.
  uint64_t generation = generation_.load();
  CLIO_ASSIGN_OR_RETURN(uint64_t handle,
                        LogClientBase::OpenReader(state->path));
  switch (state->anchor) {
    case Anchor::kStart:
      break;  // a fresh reader starts at the beginning
    case Anchor::kEnd:
      CLIO_RETURN_IF_ERROR(LogClientBase::SeekToEnd(handle));
      break;
    case Anchor::kTime:
      CLIO_RETURN_IF_ERROR(
          LogClientBase::SeekToTime(handle, state->anchor_time));
      break;
  }
  // Replay the cursor. The log is append-only, so re-running the same
  // number of Next/Prev steps from the same anchor lands on the same
  // entry. Running out early (unforced tail lost in a crash) parks the
  // cursor at the surviving end.
  for (int64_t i = 0; i < state->offset; ++i) {
    CLIO_ASSIGN_OR_RETURN(auto entry, LogClientBase::ReadNext(handle));
    if (!entry.has_value()) {
      break;
    }
  }
  for (int64_t i = 0; i > state->offset; --i) {
    CLIO_ASSIGN_OR_RETURN(auto entry, LogClientBase::ReadPrev(handle));
    if (!entry.has_value()) {
      break;
    }
  }
  state->server_handle = handle;
  state->generation = generation;
  return Status::Ok();
}

template <typename Op>
auto NetLogClient::WithReader(uint64_t handle, Op op)
    -> decltype(op(std::declval<ReaderState*>())) {
  auto it = readers_.find(handle);
  if (it == readers_.end()) {
    return NotFound("no such reader handle");
  }
  ReaderState* state = &it->second;
  // A few laps: each lap either runs on a fresh handle or discovers
  // mid-op that the connection turned over and re-establishes.
  for (int lap = 0; lap < 4; ++lap) {
    if (state->generation != generation_.load()) {
      Status restored = ReestablishReader(state);
      if (!restored.ok()) {
        return restored;
      }
    }
    auto result = op(state);
    if (result.ok() || CodeOf(result) != StatusCode::kNotFound ||
        state->generation == generation_.load()) {
      return result;
    }
    // kNotFound + stale generation: the server restarted under this op
    // and the handle died with the old session. Re-establish and retry.
  }
  return Unavailable("reader could not be re-established");
}

Result<uint64_t> NetLogClient::OpenReader(std::string_view path) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  CLIO_ASSIGN_OR_RETURN(uint64_t server_handle,
                        LogClientBase::OpenReader(path));
  ReaderState state;
  state.path = std::string(path);
  state.server_handle = server_handle;
  state.generation = generation_.load();
  uint64_t handle = next_virtual_handle_++;
  readers_[handle] = std::move(state);
  return handle;
}

Status NetLogClient::CloseReader(uint64_t handle) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  auto it = readers_.find(handle);
  if (it == readers_.end()) {
    return NotFound("no such reader handle");
  }
  // Best-effort: if the connection turned over, the server-side reader
  // died with its session and there is nothing to close.
  if (it->second.generation == generation_.load()) {
    (void)LogClientBase::CloseReader(it->second.server_handle);
  }
  readers_.erase(it);
  return Status::Ok();
}

Result<std::optional<RemoteEntry>> NetLogClient::ReadNext(uint64_t handle) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this](ReaderState* state) {
    auto entry = LogClientBase::ReadNext(state->server_handle);
    if (entry.ok() && entry->has_value()) {
      ++state->offset;
    }
    return entry;
  });
}

Result<EntryBatch> NetLogClient::ReadNextBatch(uint64_t handle,
                                               uint32_t max_entries) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this, max_entries](ReaderState* state) {
    auto batch =
        LogClientBase::ReadNextBatch(state->server_handle, max_entries);
    if (batch.ok()) {
      // Every delivered entry advanced the server-side cursor; replay
      // after a reconnect must advance by the same count.
      state->offset += static_cast<int64_t>(batch->entries.size());
    }
    return batch;
  });
}

Result<std::optional<RemoteEntry>> NetLogClient::ReadPrev(uint64_t handle) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this](ReaderState* state) {
    auto entry = LogClientBase::ReadPrev(state->server_handle);
    if (entry.ok() && entry->has_value()) {
      --state->offset;
    }
    return entry;
  });
}

Status NetLogClient::SeekToTime(uint64_t handle, Timestamp t) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this, t](ReaderState* state) {
    Status status = LogClientBase::SeekToTime(state->server_handle, t);
    if (status.ok()) {
      state->anchor = Anchor::kTime;
      state->anchor_time = t;
      state->offset = 0;
    }
    return status;
  });
}

Status NetLogClient::SeekToStart(uint64_t handle) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this](ReaderState* state) {
    Status status = LogClientBase::SeekToStart(state->server_handle);
    if (status.ok()) {
      state->anchor = Anchor::kStart;
      state->offset = 0;
    }
    return status;
  });
}

Status NetLogClient::SeekToEnd(uint64_t handle) {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return WithReader(handle, [this](ReaderState* state) {
    Status status = LogClientBase::SeekToEnd(state->server_handle);
    if (status.ok()) {
      state->anchor = Anchor::kEnd;
      state->offset = 0;
    }
    return status;
  });
}

}  // namespace clio
