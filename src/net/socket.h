// Minimal RAII loopback TCP sockets for the network log service.
//
// The service is deliberately localhost-only (127.0.0.1): it models the
// paper's clients sharing one log server on a machine, not an
// authenticated wide-area protocol. Blocking exact-length I/O for the
// client (the framing layer never sees a short buffer without knowing it);
// non-blocking single attempts for the server's event loop.
#ifndef SRC_NET_SOCKET_H_
#define SRC_NET_SOCKET_H_

#include <sys/uio.h>

#include <cstdint>
#include <span>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace clio {

// Outcome of one non-blocking I/O attempt (RecvSome / SendmsgSome).
// Exactly one of {bytes > 0, would_block, eof} describes what happened;
// hard socket errors come back as a Status instead.
struct IoResult {
  size_t bytes = 0;
  bool would_block = false;
  bool eof = false;  // recv only: orderly peer shutdown
};

class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd) : fd_(fd) {}
  ~TcpSocket() { Close(); }

  TcpSocket(TcpSocket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpSocket& operator=(TcpSocket&& other) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  // Listening socket bound to 127.0.0.1:port (port 0: kernel-chosen;
  // read it back with local_port()).
  static Result<TcpSocket> ListenLoopback(uint16_t port);
  // Connected socket to 127.0.0.1:port.
  static Result<TcpSocket> ConnectLoopback(uint16_t port);

  // Accepts one connection (the event loop's listener is non-blocking, so
  // an empty backlog fails at once).
  Result<TcpSocket> Accept();

  // Port this socket is bound to.
  Result<uint16_t> local_port() const;

  // Installs a deadline on every subsequent blocking send and receive:
  // an operation stalled longer than `timeout_ms` fails with kUnavailable
  // instead of wedging the calling thread behind a hung peer. 0 clears
  // the deadline (block forever).
  Status SetIoTimeout(uint64_t timeout_ms);

  // Writes all of `data` (retrying short writes). kUnavailable if the
  // peer is gone or the I/O deadline expires.
  Status WriteAll(std::span<const std::byte> data);

  // Reads exactly out.size() bytes unless the peer closes first: returns
  // the number of bytes read (< out.size() means EOF mid-buffer, 0 means
  // clean EOF before anything arrived). Socket errors (including an
  // expired I/O deadline) are a Status.
  Result<size_t> ReadFull(std::span<std::byte> out);

  // -- Non-blocking mode (the epoll event loop, src/net/event_loop.*). --

  // O_NONBLOCK on/off. The Some() calls below are meaningful only with it
  // on; the blocking calls above are only correct with it off.
  Status SetNonBlocking(bool on);

  // One recv() attempt: up to out.size() bytes, never blocking. See
  // IoResult for the outcome encoding.
  Result<IoResult> RecvSome(std::span<std::byte> out);

  // One sendmsg() attempt over a scatter list (the zero-copy reply
  // flush): writes as much of `iov` as the kernel accepts in one call.
  // A short write is normal — the caller advances its cursor and waits
  // for EPOLLOUT.
  Result<IoResult> SendmsgSome(std::span<const iovec> iov);

  // Kernel send buffer size; the backpressure tests shrink SO_SNDBUF so a
  // large reply overruns it deterministically.
  Status SetSendBufferSize(int bytes);

  // Disallows further sends and receives; unblocks a peer (or our own
  // thread) blocked in a read. The fd stays owned until Close().
  void ShutdownBoth();

  void Close();
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

}  // namespace clio

#endif  // SRC_NET_SOCKET_H_
