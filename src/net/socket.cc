#include "src/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace clio {
namespace {

Status ErrnoStatus(const char* what) {
  return Unavailable(std::string(what) + ": " + std::strerror(errno));
}

sockaddr_in LoopbackAddress(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

TcpSocket& TcpSocket::operator=(TcpSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<TcpSocket> TcpSocket::ListenLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoStatus("socket");
  }
  TcpSocket sock(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddress(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("bind");
  }
  if (::listen(fd, 64) != 0) {
    return ErrnoStatus("listen");
  }
  return sock;
}

Result<TcpSocket> TcpSocket::ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return ErrnoStatus("socket");
  }
  TcpSocket sock(fd);
  sockaddr_in addr = LoopbackAddress(port);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    // An EINTR'd connect completes asynchronously; retrying reports
    // EISCONN once the (loopback, so effectively instant) handshake lands.
  } while (rc != 0 && (errno == EINTR || errno == EALREADY));
  if (rc != 0 && errno != EISCONN) {
    return ErrnoStatus("connect");
  }
  // Request/reply frames are small; don't let Nagle batch them for us —
  // batching is the log server's job, not the kernel's.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Result<TcpSocket> TcpSocket::Accept() {
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return ErrnoStatus("accept");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpSocket(fd);
}

Result<uint16_t> TcpSocket::local_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return ErrnoStatus("getsockname");
  }
  return ntohs(addr.sin_port);
}

Status TcpSocket::SetIoTimeout(uint64_t timeout_ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return ErrnoStatus("setsockopt(SO_RCVTIMEO/SO_SNDTIMEO)");
  }
  return Status::Ok();
}

Status TcpSocket::WriteAll(std::span<const std::byte> data) {
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as a Status, not SIGPIPE.
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Unavailable("send timed out (peer not draining)");
      }
      return ErrnoStatus("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<size_t> TcpSocket::ReadFull(std::span<std::byte> out) {
  size_t received = 0;
  while (received < out.size()) {
    ssize_t n = ::recv(fd_, out.data() + received, out.size() - received, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Unavailable("recv timed out (peer stalled mid-message)");
      }
      return ErrnoStatus("recv");
    }
    if (n == 0) {
      break;  // EOF
    }
    received += static_cast<size_t>(n);
  }
  return received;
}

Status TcpSocket::SetNonBlocking(bool on) {
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) {
    return ErrnoStatus("fcntl(F_GETFL)");
  }
  flags = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, flags) != 0) {
    return ErrnoStatus("fcntl(F_SETFL)");
  }
  return Status::Ok();
}

Result<IoResult> TcpSocket::RecvSome(std::span<std::byte> out) {
  IoResult result;
  ssize_t n;
  do {
    n = ::recv(fd_, out.data(), out.size(), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.would_block = true;
      return result;
    }
    return ErrnoStatus("recv");
  }
  if (n == 0) {
    result.eof = true;
    return result;
  }
  result.bytes = static_cast<size_t>(n);
  return result;
}

Result<IoResult> TcpSocket::SendmsgSome(std::span<const iovec> iov) {
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(iov.data());
  msg.msg_iovlen = iov.size();
  IoResult result;
  ssize_t n;
  do {
    // MSG_NOSIGNAL as in WriteAll: a vanished peer is a Status, never
    // SIGPIPE.
    n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.would_block = true;
      return result;
    }
    return ErrnoStatus("sendmsg");
  }
  result.bytes = static_cast<size_t>(n);
  return result;
}

Status TcpSocket::SetSendBufferSize(int bytes) {
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) != 0) {
    return ErrnoStatus("setsockopt(SO_SNDBUF)");
  }
  return Status::Ok();
}

void TcpSocket::ShutdownBoth() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void TcpSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace clio
