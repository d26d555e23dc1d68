// NetLogClient: the fault-tolerant TCP client of the log service.
//
// The typed API is LogClientBase's (src/ipc/codec.h); the transport is
// one frame per request over a loopback TCP connection to a NetLogServer.
// Synchronous: Call() writes the request frame and blocks for the
// matching reply.
//
// Fault tolerance (DESIGN.md §10):
//  - Transport failures (server gone, connection reset, I/O deadline)
//    trigger automatic reconnect with capped exponential backoff and a
//    retransmit of the same frame. Appends are stamped with
//    (client_id, request_seq) so the server's dedup window makes the
//    retransmit idempotent — an append acked while the reply was lost is
//    re-acked, not re-logged.
//  - Server replies of kUnavailable (transient storage faults) are
//    retried on the live connection, same stamp, same backoff schedule.
//  - Reader handles are virtualized: the handles this client returns are
//    client-side, each backed by a server handle plus replay state
//    (anchor seek + net cursor offset). After a reconnect the server-side
//    reader is gone; the next read re-opens it and replays the cursor —
//    deterministic because the log is append-only.
//
// Thread-safe in the trivial way — an internal mutex admits one
// outstanding call at a time — so concurrency across the wire comes from
// multiple clients, exactly the many-connections shape the server
// batches over.
#ifndef SRC_NET_NET_CLIENT_H_
#define SRC_NET_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "src/ipc/codec.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace clio {

// Retry/backoff schedule for one logical Call(). Attempt 1 is the
// original transmission; each further attempt sleeps the current backoff
// first, then doubles it up to `max_backoff_ms`.
struct NetRetryPolicy {
  int max_attempts = 8;
  uint64_t initial_backoff_ms = 2;
  uint64_t max_backoff_ms = 250;
};

struct NetClientOptions {
  // Idempotency identity for this client's appends. 0 auto-generates a
  // process-unique nonzero id. Reusing an id across client instances
  // (e.g. a restarted process) joins the same server dedup window.
  uint64_t client_id = 0;
  NetRetryPolicy retry;
  // Socket deadline for each blocking send/recv (see
  // TcpSocket::SetIoTimeout). 0 disables; a hung server then wedges the
  // caller forever.
  uint64_t io_timeout_ms = 10'000;
};

class NetLogClient : public LogClientBase {
 public:
  static Result<std::unique_ptr<NetLogClient>> Connect(
      uint16_t port, const NetClientOptions& options = {});

  NetLogClient(const NetLogClient&) = delete;
  NetLogClient& operator=(const NetLogClient&) = delete;

  // Closes the connection for good; subsequent calls fail with
  // kUnavailable and no reconnect is attempted.
  void Disconnect();

  uint64_t client_id() const { return client_id_; }
  // Successful re-establishments of the TCP connection after a failure.
  uint64_t reconnects() const { return reconnects_.load(); }
  // Retransmissions (any attempt after the first, transport or server
  // kUnavailable).
  uint64_t retries() const { return retries_.load(); }
  // Trace id stamped on the most recently issued Call(). A retried call
  // keeps its id (the frame is encoded once), so this identifies the
  // logical request across retransmits — tests correlate it against a
  // server-side trace dump.
  uint64_t last_trace_id() const { return last_trace_id_.load(); }

  // -- Virtualized reader API (overrides LogClientBase). Handles returned
  // here survive server restarts; see header comment. --
  Result<uint64_t> OpenReader(std::string_view path) override;
  Status CloseReader(uint64_t handle) override;
  Result<std::optional<RemoteEntry>> ReadNext(uint64_t handle) override;
  Result<std::optional<RemoteEntry>> ReadPrev(uint64_t handle) override;
  Result<EntryBatch> ReadNextBatch(uint64_t handle,
                                   uint32_t max_entries) override;
  Status SeekToTime(uint64_t handle, Timestamp t) override;
  Status SeekToStart(uint64_t handle) override;
  Status SeekToEnd(uint64_t handle) override;

 private:
  // Where a reader's cursor replay starts from after re-establishment.
  enum class Anchor { kStart, kEnd, kTime };

  struct ReaderState {
    std::string path;
    uint64_t server_handle = 0;
    uint64_t generation = 0;  // connection generation the handle lives on
    Anchor anchor = Anchor::kStart;
    Timestamp anchor_time = 0;
    // Net cursor movement since the anchor: +1 per successful Next, -1
    // per successful Prev. Replayed verbatim on re-establishment.
    int64_t offset = 0;
  };

  NetLogClient(TcpSocket socket, uint16_t port,
               const NetClientOptions& options, uint64_t client_id);

  Result<Bytes> Call(LogOp op, const Bytes& body) override;
  std::pair<uint64_t, uint64_t> NextAppendStamp() override {
    return {client_id_, append_seq_.fetch_add(1) + 1};
  }

  // Reconnects if the socket is down. Requires mu_ held.
  Status EnsureConnectedLocked();
  // One frame round trip on the current socket. Requires mu_ held. A
  // non-ok status here means the transport failed (the socket has been
  // closed); a server-side error arrives as the Result of the decoded
  // reply body instead.
  Result<Bytes> RoundTripLocked(const Bytes& frame, uint64_t request_id);

  // Re-opens `state`'s server-side reader on the current connection
  // generation and replays its cursor. Requires readers_mu_ held.
  Status ReestablishReader(ReaderState* state);
  // Runs `op` against the reader, re-establishing across reconnects.
  // Requires readers_mu_ held.
  template <typename Op>
  auto WithReader(uint64_t handle, Op op)
      -> decltype(op(std::declval<ReaderState*>()));

  const uint16_t port_;
  const NetClientOptions options_;
  const uint64_t client_id_;

  std::mutex mu_;  // one outstanding call per client
  TcpSocket socket_;
  bool closed_ = false;  // Disconnect() was called
  uint64_t next_request_id_ = 1;

  std::mutex readers_mu_;  // held across whole reader ops; ordered before mu_
  std::map<uint64_t, ReaderState> readers_;
  uint64_t next_virtual_handle_ = 1;

  std::atomic<uint64_t> generation_{1};  // bumped on every reconnect
  std::atomic<uint64_t> append_seq_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> last_trace_id_{0};
};

}  // namespace clio

#endif  // SRC_NET_NET_CLIENT_H_
