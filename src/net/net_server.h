// NetLogServer: the Clio log service as a multi-client TCP server.
//
// The paper's clients reach the log server through kernel IPC (§3.2);
// here they connect over TCP: many concurrent client connections on a
// localhost TCP port, each with its own session (per-connection reader
// table, idle timeout), all dispatching onto one shared
// PartitionedLogService. One epoll thread multiplexes every socket —
// accepts, framed partial reads, and zero-copy reply flushes — while a
// worker pool executes decoded requests, so connection count costs no
// thread (DESIGN.md §16). Batched-read replies are scatter lists over
// cache-pinned block images flushed with sendmsg() (no payload memcpy).
// Each LogService locks for itself: read ops take the owning partition's
// lock SHARED — write-once data lets tail scans run concurrently — and
// mutations take it EXCLUSIVE (DESIGN.md §12).
//
// Appends run on one LANE per partition: the partition's LogService, its
// own group-commit batcher (so batches never mix partitions and N covering
// forces run concurrently), and its own dedup index. An append routes to
// its lane via the service's router and contends only on that lane's lock
// (DESIGN.md §14). A plain LogService is served as a one-partition
// deployment.
//
// Robustness: a malformed or oversized frame closes only the offending
// connection; a decodable frame with a garbage body gets an error reply
// and the connection lives on. Stop() drains gracefully — in-flight
// requests finish and are answered before their sockets close.
#ifndef SRC_NET_NET_SERVER_H_
#define SRC_NET_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/clio/log_service.h"
#include "src/ipc/codec.h"
#include "src/net/batcher.h"
#include "src/net/dedup.h"
#include "src/net/event_loop.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/obs/telemetry.h"
#include "src/partition/partitioned_service.h"
#include "src/scrub/scrubber.h"

namespace clio {

struct NetLogServerOptions {
  uint16_t port = 0;  // 0: kernel-chosen; read it back with port()
  // A session with no traffic for this long is closed. 0 disables.
  uint64_t idle_timeout_ms = 60'000;
  // Group commit of forced appends: every forced append goes through its
  // lane's batcher (max_batch_entries = 1 gives each its own force).
  GroupCommitOptions batch;
  // Per-frame body cap for this server (see src/net/frame.h).
  uint32_t max_frame_body = kMaxFrameBodySize;
  // Stall limit on a connection's socket I/O: a frame left half-sent, or
  // a reply the peer drains nothing of, for this long closes the
  // connection, so one hung client cannot hold its buffers and cache pins
  // forever. 0 disables.
  uint64_t session_io_timeout_ms = 10'000;
  // Dedup windows for stamped appends (see src/net/dedup.h), one per
  // partition: dedup[i] serves lane i, so a non-empty vector must hold
  // exactly one index per partition. A log file never changes partitions,
  // so a retried stamp always lands on the index that recorded it. Empty:
  // the server owns private indexes. A supervisor that restarts servers
  // passes long-lived indexes here so retried appends whose acks were lost
  // to a crash still deduplicate after the restart.
  std::vector<AppendDedupIndex*> dedup;
  // Online scrubbing (DESIGN.md §15): one background Scrubber per append
  // lane, started with the server and stopped by Stop(). Lane i's scrub
  // metrics record under ".p<i>", same as the batch metrics.
  bool scrub = false;
  ScrubOptions scrub_options;
  // Self-hosted telemetry (DESIGN.md §18): a background TelemetrySampler
  // journals windowed metric deltas to the reserved system log file
  // `/.sys/telemetry` (created through the normal write path on boot, on
  // partition 0), started with the server and flushed by Stop(). The
  // journal is an ordinary log file: durable across restarts,
  // timestamp-searchable, covered by the v2 hash chain.
  bool telemetry = false;
  TelemetrySamplerOptions telemetry_options;
  // SLO rules behind the kHealth op and the slow-request exemplar ring.
  SloRules slo = SloRules::Defaults();
  // Test knob: SO_SNDBUF for accepted session sockets, in bytes. Shrinking
  // it makes the kernel's send queue fill deterministically so backpressure
  // tests can force the partial-flush (EPOLLOUT) path. 0: kernel default.
  int accept_sndbuf = 0;
};

class NetLogServer {
 public:
  // Binds, then starts the event loop, the workers, and one append lane
  // per partition (batcher, dedup index, scrubber). `service` must outlive
  // the server.
  static Result<std::unique_ptr<NetLogServer>> Start(
      PartitionedLogService* service, const NetLogServerOptions& options = {});
  // Serves a plain LogService as a one-partition deployment, through a
  // PartitionedLogService::Wrap view the server owns. Once served, create
  // log files through the server, not on `service` directly.
  static Result<std::unique_ptr<NetLogServer>> Start(
      LogService* service, const NetLogServerOptions& options = {});
  ~NetLogServer();

  NetLogServer(const NetLogServer&) = delete;
  NetLogServer& operator=(const NetLogServer&) = delete;

  // Graceful drain: stops accepting, lets every connection finish its
  // in-flight request (including queued batch commits), joins all
  // threads. Idempotent.
  void Stop();

  uint16_t port() const { return port_; }

  // -- Counters (readable while the server runs). --
  uint64_t sessions_opened() const { return sessions_opened_.load(); }
  uint64_t sessions_idle_closed() const {
    return sessions_idle_closed_.load();
  }
  uint64_t frames_dispatched() const { return frames_dispatched_.load(); }
  uint64_t frames_rejected() const { return frames_rejected_.load(); }
  size_t lane_count() const { return lanes_.size(); }
  // Lane 0's instances (the only lane of a one-partition deployment).
  const GroupCommitBatcher* batcher() const { return batcher(0); }
  const AppendDedupIndex* dedup() const { return dedup(0); }
  // Per-lane access, for tests asserting lane isolation.
  const GroupCommitBatcher* batcher(size_t lane) const {
    return lanes_[lane].batcher.get();
  }
  const AppendDedupIndex* dedup(size_t lane) const {
    return lanes_[lane].dedup;
  }
  // Lane i's scrubber; null unless options.scrub was set.
  const Scrubber* scrubber(size_t lane = 0) const {
    return lanes_[lane].scrubber.get();
  }
  // The telemetry sampler; null unless options.telemetry was set.
  const TelemetrySampler* sampler() const { return sampler_.get(); }

 private:
  // One append path: a partition's service, batcher, and dedup window.
  struct AppendLane {
    LogService* service = nullptr;
    std::unique_ptr<GroupCommitBatcher> batcher;
    AppendDedupIndex* dedup = nullptr;
    std::unique_ptr<AppendDedupIndex> owned_dedup;
    std::unique_ptr<Scrubber> scrubber;
  };

  // One event-loop connection: transport state machine + this session's
  // dispatcher. Defined in net_server.cc.
  struct Conn;

  NetLogServer(PartitionedLogService* service,
               const NetLogServerOptions& options);

  // -- Event loop (all socket I/O on the loop thread) and workers. --
  void LoopMain();
  void WorkerMain();
  void LoopAccept();
  void HandleReadable(Conn* conn);
  void HandleWritable(Conn* conn);
  void FlushReply(Conn* conn);
  void DrainCompletions();
  void SweepDeadlines();
  void CloseConn(Conn* conn);
  // The lane owning `path`'s appends; NotFound when no partition knows it.
  Result<AppendLane*> ResolveLane(const std::string& path);
  Result<AppendResult> RouteAppend(const AppendRequest& request);
  // Forces the lane and promotes the stamps that force covered, under one
  // WriteHandle (the replay re-force).
  Status ForceLane(AppendLane& lane);

  // -- Telemetry / health plane (src/obs/telemetry.h). --
  // Creates /.sys and the journal through the normal write path (no-ops
  // when they already exist, i.e. after a restart).
  Status EnsureTelemetryJournal();
  // The sampler's append closure: one encoded record to the journal.
  Status AppendTelemetry(std::span<const std::byte> record);
  // The kHealth evaluator: windowed rules over the live registry, with
  // slow-request exemplars attached.
  HealthReport EvaluateServerHealth();

  // Set by Start(LogService*) only: the view partitioned_ points at.
  std::unique_ptr<PartitionedLogService> owned_view_;
  PartitionedLogService* const partitioned_;
  const NetLogServerOptions options_;
  TcpSocket listener_;
  uint16_t port_ = 0;
  std::vector<AppendLane> lanes_;
  std::unique_ptr<TelemetrySampler> sampler_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // Stop() already ran to completion

  // -- Event-loop state. conns_ is loop-thread-confined; the queues carry
  // parked connections between the loop and the workers. --
  EventLoop loop_;
  std::thread loop_thread_;
  std::vector<std::thread> worker_threads_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<Conn*> work_queue_;
  std::mutex done_mu_;
  std::vector<Conn*> done_queue_;

  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_idle_closed_{0};
  std::atomic<uint64_t> frames_dispatched_{0};
  std::atomic<uint64_t> frames_rejected_{0};
};

}  // namespace clio

#endif  // SRC_NET_NET_SERVER_H_
