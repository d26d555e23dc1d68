// Thin RAII epoll multiplexer for the event-loop net server.
//
// One EventLoop instance is owned and driven by exactly one thread (the
// server's loop thread). Cross-thread entry points: Wake(), which other
// threads (workers, Stop()) use to interrupt a blocked Poll(), and
// Modify(), which is a single epoll_ctl syscall with no member mutation
// (workers re-arm read interest on a connection they own after an inline
// reply flush). Registration tags are opaque pointers the caller
// round-trips through epoll_event.data.ptr — the loop layer knows
// nothing about connections.
#ifndef SRC_NET_EVENT_LOOP_H_
#define SRC_NET_EVENT_LOOP_H_

#include <sys/epoll.h>

#include <cstdint>
#include <span>

#include "src/util/status.h"

namespace clio {

class EventLoop {
 public:
  EventLoop() = default;
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Creates the epoll instance and the eventfd wakeup channel. The wakeup
  // fd is registered internally; Poll() reports it with a null tag after
  // draining it, so callers just treat "null tag" as "someone woke us".
  Status Init();

  // Interest management. `events` is an EPOLLIN/EPOLLOUT mask, optionally
  // with EPOLLONESHOT (the server's connections: each event disarms the
  // fd until the next Modify). Registrations are level-triggered (the
  // server reads exact frame remainders, so edge-triggered re-arm
  // subtleties buy nothing).
  Status Add(int fd, uint32_t events, void* tag);
  Status Modify(int fd, uint32_t events, void* tag);
  Status Remove(int fd);

  // Waits up to `timeout_ms` (-1: forever) and fills `out` with ready
  // events, wakeup already drained and reported with data.ptr == nullptr.
  // Returns the event count; EINTR returns 0 like a timeout.
  Result<int> Poll(std::span<epoll_event> out, int timeout_ms);

  // Interrupts a concurrent Poll(). Safe from any thread, async-signal
  // unsafe parts avoided (one 8-byte eventfd write).
  void Wake();

  bool initialized() const { return epoll_fd_ >= 0; }

 private:
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
};

}  // namespace clio

#endif  // SRC_NET_EVENT_LOOP_H_
