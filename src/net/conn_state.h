// Per-connection framed-I/O state machine for the event-loop server.
//
// A ConnState owns one non-blocking session socket and the partial-frame
// progress on both sides of it. The read side accumulates exactly one
// request frame (prefix, then the version's trace extension, then the
// body) across however many readiness events it takes; the write side
// flushes one reply — a frame header plus a scatter WireMessage whose
// borrowed slices point straight into pinned block images — with
// sendmsg(), advancing a cursor across short writes. Strictly transport:
// no dispatch, locking, or lane logic lives here.
//
// Threading: the loop thread drives ReadStep/FlushStep; BeginReply is
// called by a worker while the connection is parked (disarmed in epoll,
// never touched by the loop), with the handoff ordered by the server's
// owner state and queue mutexes.
#ifndef SRC_NET_CONN_STATE_H_
#define SRC_NET_CONN_STATE_H_

#include <cstdint>

#include "src/ipc/codec.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace clio {

class ConnState {
 public:
  enum class ReadOutcome {
    kNeedMore,    // would block; wait for the next EPOLLIN
    kFrame,       // a complete request frame is in header()/body()
    kPeerClosed,  // orderly EOF on a frame boundary
    kBadFrame,    // garbage framing or EOF mid-frame; close, count rejected
    kError,       // hard socket error
  };
  enum class FlushOutcome {
    kDone,   // reply fully on the wire; pins released
    kAgain,  // kernel buffer full; wait for EPOLLOUT
    kError,  // hard socket error
  };

  ConnState(TcpSocket socket, uint32_t max_frame_body)
      : socket_(std::move(socket)), max_frame_body_(max_frame_body) {}

  TcpSocket& socket() { return socket_; }

  // Advances the read machine with non-blocking reads until a complete
  // frame, would-block, EOF, or error. After kFrame the decoded request
  // stays in header()/body() until ResetRead().
  ReadOutcome ReadStep();

  const FrameHeader& header() const { return header_; }
  const Bytes& body() const { return body_; }
  // Wire bytes of the completed frame (prefix + extension + body).
  size_t frame_wire_bytes() const {
    return head_buf_.size() + header_.body_size;
  }
  // True from the first byte of a frame onward (until ResetRead) — the
  // window the slow-loris (mid-frame stall) deadline applies to.
  bool mid_frame() const { return phase_ != Phase::kHeader || pos_ > 0; }
  // Monotonic µs timestamp of the current frame's first byte (the
  // kSessionRead span start).
  uint64_t frame_start_us() const { return frame_start_us_; }

  // Rearms the read machine for the next frame.
  void ResetRead();

  // Queues one reply. `reply_header.body_size` must already equal
  // `body.total_bytes()`. Replaces nothing: the server enforces one
  // request in flight per connection.
  void BeginReply(const FrameHeader& reply_header, WireMessage body);

  bool has_pending_reply() const { return reply_bytes_remaining_ > 0; }
  size_t reply_wire_bytes() const { return reply_bytes_; }

  // Writes as much of the pending reply as the kernel accepts, batching
  // the header and up to kMaxIov slices per sendmsg(). Zero-copy byte
  // accounting happens at BeginReply time (the borrowed total is known up
  // front), not here: counting after the send would race observers that
  // already hold the reply.
  FlushOutcome FlushStep();

 private:
  enum class Phase { kHeader, kExt, kBody };

  static constexpr size_t kMaxIov = 64;

  TcpSocket socket_;
  uint32_t max_frame_body_;

  // Read side. `pos_` is the fill cursor of the current phase's buffer
  // (head_buf_ for kHeader/kExt, body_ for kBody).
  Phase phase_ = Phase::kHeader;
  Bytes head_buf_ = Bytes(kFrameHeaderSize);
  Bytes body_;
  size_t pos_ = 0;
  FrameHeader header_;
  uint64_t frame_start_us_ = 0;

  // Write side: header bytes, scatter body, and the flush cursor.
  Bytes head_out_;
  WireMessage out_;
  size_t head_sent_ = 0;
  size_t slice_index_ = 0;
  size_t slice_offset_ = 0;
  size_t reply_bytes_ = 0;
  size_t reply_bytes_remaining_ = 0;
};

}  // namespace clio

#endif  // SRC_NET_CONN_STATE_H_
