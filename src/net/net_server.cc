#include "src/net/net_server.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <optional>
#include <utility>

#include "src/net/conn_state.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace clio {
namespace {

using Clock = std::chrono::steady_clock;

// Poll slice: how often the event loop's deadline sweep rechecks stop and
// idle deadlines.
constexpr int kPollSliceMs = 50;

// Connections are registered one-shot: an event disarms the connection
// until its owner re-arms it, so a connection handed to a worker needs no
// epoll_ctl to park, and none of its events (HUP included) can repeat
// while the loop does not own it.
constexpr uint32_t kArmRead = EPOLLIN | EPOLLONESHOT;
constexpr uint32_t kArmWrite = EPOLLOUT | EPOLLONESHOT;

struct ServerMetrics {
  Counter* sessions = ObsRegistry().counter("clio.net.server.sessions");
  Counter* idle_closed =
      ObsRegistry().counter("clio.net.server.sessions_idle_closed");
  Counter* frames = ObsRegistry().counter("clio.net.server.frames");
  Counter* rejected = ObsRegistry().counter("clio.net.server.frames_rejected");
  Counter* bytes_in = ObsRegistry().counter("clio.net.server.bytes_in");
  Counter* bytes_out = ObsRegistry().counter("clio.net.server.bytes_out");
  Gauge* active_sessions =
      ObsRegistry().gauge("clio.net.server.active_sessions");
  // Payload bytes handed to the socket straight from block images, never
  // copied into a reply buffer (counted when the reply is queued), loop
  // activity, and per-stage latency (parked-in-queue, worker execution,
  // reply flush).
  Counter* zerocopy_bytes =
      ObsRegistry().counter("clio.net.reply.zerocopy_bytes");
  Counter* loop_wakeups = ObsRegistry().counter("clio.net.loop.wakeups");
  Gauge* queue_depth = ObsRegistry().gauge("clio.net.loop.queue_depth");
  Histogram* stage_queue_us =
      ObsRegistry().histogram("clio.net.stage.queue_us");
  Histogram* stage_handle_us =
      ObsRegistry().histogram("clio.net.stage.handle_us");
  Histogram* stage_flush_us =
      ObsRegistry().histogram("clio.net.stage.flush_us");
};

ServerMetrics& Metrics() {
  static ServerMetrics* metrics = new ServerMetrics();
  return *metrics;
}

}  // namespace

// One event-loop connection. The transport machine (ConnState) and the
// session's dispatcher travel together between the loop thread and a
// worker. While `owner` is not kLoop the worker owns everything here and
// the loop thread touches nothing but `owner` itself; the worker's release
// (after its inline flush) publishes its writes to the loop's acquire
// loads. The remaining booleans stay loop-confined.
struct NetLogServer::Conn {
  enum class Owner : uint8_t {
    kLoop,    // between requests: the loop reads, flushes and closes
    kWorker,  // a request is in flight; its worker owns the connection
    // Still the worker's, but its re-arm let an event through to the loop
    // before the release. One-shot registration disarmed the connection
    // with that event, so the worker hands it back for the loop to read.
    kWorkerMissedEvent,
  };

  Conn(TcpSocket socket, uint32_t max_frame_body)
      : state(std::move(socket), max_frame_body) {}

  // Whether the loop thread may touch the connection.
  bool loop_owns() const {
    return owner.load(std::memory_order_acquire) == Owner::kLoop;
  }

  ConnState state;
  std::optional<ServiceDispatcher> dispatcher;

  Clock::time_point idle_deadline;
  Clock::time_point io_deadline;  // mid-frame stall / stuck-flush limit
  bool io_deadline_armed = false;
  std::atomic<Owner> owner{Owner::kLoop};
  bool flushing = false;  // EPOLLOUT armed, reply partially written
  bool dead = false;      // closed; reaped after the current event batch
  uint64_t enqueued_us = 0;
  uint64_t flush_start_us = 0;
  uint64_t trace_id = 0;  // of the request being answered
};

NetLogServer::NetLogServer(PartitionedLogService* service,
                           const NetLogServerOptions& options)
    : partitioned_(service), options_(options) {}

Result<std::unique_ptr<NetLogServer>> NetLogServer::Start(
    LogService* service, const NetLogServerOptions& options) {
  CLIO_ASSIGN_OR_RETURN(std::unique_ptr<PartitionedLogService> view,
                        PartitionedLogService::Wrap(service));
  CLIO_ASSIGN_OR_RETURN(std::unique_ptr<NetLogServer> server,
                        Start(view.get(), options));
  server->owned_view_ = std::move(view);
  return server;
}

Result<std::unique_ptr<NetLogServer>> NetLogServer::Start(
    PartitionedLogService* service, const NetLogServerOptions& options) {
  const uint32_t partitions = service->partition_count();
  if (!options.dedup.empty() && options.dedup.size() != partitions) {
    return InvalidArgument("dedup holds " +
                           std::to_string(options.dedup.size()) +
                           " indexes for " + std::to_string(partitions) +
                           " partitions");
  }
  std::unique_ptr<NetLogServer> server(new NetLogServer(service, options));
  CLIO_ASSIGN_OR_RETURN(server->listener_,
                        TcpSocket::ListenLoopback(options.port));
  CLIO_ASSIGN_OR_RETURN(server->port_, server->listener_.local_port());
  server->lanes_.resize(partitions);
  for (uint32_t i = 0; i < partitions; ++i) {
    AppendLane& lane = server->lanes_[i];
    lane.service = service->partition(i);
    if (options.dedup.empty()) {
      lane.owned_dedup = std::make_unique<AppendDedupIndex>();
      lane.dedup = lane.owned_dedup.get();
    } else {
      lane.dedup = options.dedup[i];
    }
    // The batcher and scrubber record into their service's metric lane.
    lane.batcher =
        std::make_unique<GroupCommitBatcher>(lane.service, options.batch);
    lane.batcher->set_dedup(lane.dedup);
    lane.batcher->Start();
    if (options.scrub) {
      lane.scrubber =
          std::make_unique<Scrubber>(lane.service, options.scrub_options);
      lane.scrubber->Start();
    }
  }
  // The slow-request ring's thresholds derive from this server's SLO so
  // kHealth exemplars match the rules that would flag them.
  ConfigureSlowRequestThresholds(options.slo);
  if (options.telemetry) {
    CLIO_RETURN_IF_ERROR(server->EnsureTelemetryJournal());
    server->sampler_ = std::make_unique<TelemetrySampler>(
        [s = server.get()](std::span<const std::byte> record) {
          return s->AppendTelemetry(record);
        },
        options.telemetry_options);
    server->sampler_->Start();
  }
  CLIO_RETURN_IF_ERROR(server->loop_.Init());
  CLIO_RETURN_IF_ERROR(server->listener_.SetNonBlocking(true));
  CLIO_RETURN_IF_ERROR(server->loop_.Add(server->listener_.fd(), EPOLLIN,
                                         &server->listener_));
  // Workers block in the group-commit batcher until their covering force
  // completes, so the pool size bounds the append batching degree.
  const size_t workers = std::max(8u, std::thread::hardware_concurrency());
  for (size_t i = 0; i < workers; ++i) {
    server->worker_threads_.emplace_back(
        [s = server.get()] { s->WorkerMain(); });
  }
  server->loop_thread_ = std::thread([s = server.get()] { s->LoopMain(); });
  return server;
}

NetLogServer::~NetLogServer() { Stop(); }

void NetLogServer::Stop() {
  if (stopped_) {
    return;
  }
  stopping_.store(true);
  // The sampler first: its Stop() flushes one final record through the
  // services, which must happen while the lanes are still serving.
  if (sampler_ != nullptr) {
    sampler_->Stop();
  }
  // Quiesce the scrubbers next: they hold the service lock one block probe
  // at a time, so this is quick, and it keeps a scan from contending with
  // the draining sessions below.
  for (AppendLane& lane : lanes_) {
    if (lane.scrubber != nullptr) {
      lane.scrubber->Stop();
    }
  }
  // The loop sees stopping_, stops accepting, closes idle connections at
  // once, and keeps running until every in-flight request has been
  // executed and its reply flushed.
  loop_.Wake();
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  // Workers exit once the queue is dry (the drained loop guarantees it).
  work_cv_.notify_all();
  for (std::thread& worker : worker_threads_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  worker_threads_.clear();
  listener_.ShutdownBoth();
  // After the workers: a worker blocked in a batcher needs that commit
  // thread alive to get its result.
  for (AppendLane& lane : lanes_) {
    lane.batcher->Stop();
  }
  stopped_ = true;
}

Status NetLogServer::ForceLane(AppendLane& lane) {
  LogService::WriteHandle writer = lane.service->LockForWrite();
  Status force = writer.Force();
  if (force.ok()) {
    // Promotes every staged stamp this force covered (see dedup.h).
    lane.dedup->MarkAllStagedDurable();
  }
  return force;
}

Status NetLogServer::EnsureTelemetryJournal() {
  const std::string& path = options_.telemetry_options.journal_path;
  // Recovered volumes already carry the journal; AlreadyExists is the
  // "nothing to do" restart case, not an error.
  auto tolerate = [](const Status& s) {
    return s.ok() || s.code() == StatusCode::kAlreadyExists ? Status::Ok()
                                                            : s;
  };
  // Pin the journal (and its parent) to partition 0 so `--history` and
  // the chain verifier always know where to look.
  CLIO_RETURN_IF_ERROR(tolerate(
      partitioned_->CreateLogFile(kReservedSystemRoot, 0644, 0).status()));
  return tolerate(partitioned_->CreateLogFile(path, 0644, 0).status());
}

Status NetLogServer::AppendTelemetry(std::span<const std::byte> record) {
  const std::string& path = options_.telemetry_options.journal_path;
  WriteOptions options;
  // Timestamped, so the journal is searchable by time like any log file;
  // unforced — records ride to media with the surrounding traffic's
  // forces, costing the hot path nothing.
  options.timestamped = true;
  return partitioned_->Append(path, record, options).status();
}

HealthReport NetLogServer::EvaluateServerHealth() {
  UpdateProcessGauges();
  std::optional<StatsSnapshot> previous;
  uint64_t window_us = 0;
  if (sampler_ != nullptr) {
    previous = sampler_->LastSnapshot();
    window_us = sampler_->LastWindowUs();
  }
  HealthReport report =
      EvaluateHealth(ObsRegistry().Snapshot(),
                     previous.has_value() ? &*previous : nullptr, window_us,
                     options_.slo);
  report.exemplars = SlowRequestRing::Instance().Snapshot(16);
  return report;
}

Result<NetLogServer::AppendLane*> NetLogServer::ResolveLane(
    const std::string& path) {
  // "/" (routeless — it spans every partition) has its home on lane 0.
  if (path == "/") {
    return &lanes_[0];
  }
  auto route = partitioned_->RouteOf(path);
  if (!route.has_value()) {
    return NotFound("log file '" + path + "' does not exist");
  }
  return &lanes_[*route];
}

Result<AppendResult> NetLogServer::RouteAppend(const AppendRequest& request) {
  // Everything below — dedup window, batcher, covering force — is the
  // owning lane's own; appends to other lanes proceed untouched.
  CLIO_ASSIGN_OR_RETURN(AppendLane * lane, ResolveLane(request.path));
  // Unstamped appends (client_id 0) opted out of retry dedup.
  const bool stamped = request.client_id != 0;
  if (stamped) {
    if (auto replay =
            lane->dedup->Begin(request.client_id, request.request_seq)) {
      if (request.force && !replay->durable) {
        // The entry is staged in the log buffer but its covering force
        // never completed (a transient device fault failed the batch
        // force, and the client is retrying the lost ack). Re-acking would
        // promise durability the log doesn't have, and re-executing would
        // duplicate the entry — so force now (which promotes the stamp to
        // durable), then replay the recorded ack.
        CLIO_RETURN_IF_ERROR(ForceLane(*lane));
      }
      return replay->result;
    }
  }
  if (request.force) {
    // Forced appends share a batch force. The batcher completes a claim
    // itself: only it can tell a failed stage from a failed covering force
    // (see batcher.h).
    StageTimer batch_wait(nullptr, TraceStage::kBatchWait);
    return lane->batcher->Append(request);
  }
  // Unforced appends are pure buffer writes with nothing to amortize, so
  // they run directly. They never promised durability: a landed one
  // completes its claim and its ack replays as-is; a failed one landed
  // nothing and releases the stamp.
  WriteOptions options;
  options.timestamped = request.timestamped;
  Result<AppendResult> appended =
      lane->service->Append(request.path, request.payload, options);
  if (stamped && appended.ok()) {
    lane->dedup->CompleteSuccess(request.client_id, request.request_seq,
                                 *appended);
  } else if (stamped) {
    lane->dedup->CompleteFailure(request.client_id, request.request_seq);
  }
  return appended;
}

// ---------------------------------------------------------------------------
// The event loop (DESIGN.md §16). One loop thread owns every socket:
// accepts, per-connection framed reads, and reply flushes. A complete
// request parks its connection (left disarmed by its one-shot event — one
// request in flight per connection, preserving the per-session serial
// contract) and hands it to the worker pool; the worker executes the
// dispatch — including blocking in the group-commit batcher — flushes the
// reply inline and re-arms the connection, or hands it back via the
// completion queue + eventfd wake.

void NetLogServer::LoopMain() {
  std::array<epoll_event, 128> events;
  auto next_sweep = Clock::now();
  bool draining = false;
  while (true) {
    if (stopping_.load() && !draining) {
      draining = true;
      (void)loop_.Remove(listener_.fd());
    }
    if (draining) {
      // Idle connections close now; worker-owned and flushing ones drain
      // first. Swept every iteration, not once: a worker's inline flush
      // releases its connection after the stop flag was raised, and that
      // connection must still be collected.
      for (auto& conn : conns_) {
        if (conn->loop_owns() && !conn->flushing && !conn->dead) {
          CloseConn(conn.get());
        }
      }
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const std::unique_ptr<Conn>& c) {
                                    return c->dead;
                                  }),
                   conns_.end());
      if (conns_.empty()) {
        return;
      }
    }
    auto n = loop_.Poll(events, kPollSliceMs);
    if (!n.ok()) {
      return;  // epoll itself failed; Stop() still joins and cleans up
    }
    Metrics().loop_wakeups->Increment();
    for (int i = 0; i < *n; ++i) {
      void* tag = events[static_cast<size_t>(i)].data.ptr;
      if (tag == nullptr) {
        continue;  // wakeup, drained by Poll; completions handled below
      }
      if (tag == &listener_) {
        if (!stopping_.load()) {
          LoopAccept();
        }
        continue;
      }
      Conn* conn = static_cast<Conn*>(tag);
      if (conn->dead) {
        continue;
      }
      Conn::Owner owner = conn->owner.load(std::memory_order_acquire);
      if (owner == Conn::Owner::kWorker &&
          conn->owner.compare_exchange_strong(
              owner, Conn::Owner::kWorkerMissedEvent,
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        // Caught between the worker's re-arm and its release. This event
        // disarmed the connection; the worker's release sees the mark and
        // hands the connection back to be read (DrainCompletions).
        continue;
      }
      // The loop owns it (a failed mark means the worker released it
      // meanwhile). Each arming reports only what it asked for, plus
      // errors and hang-ups, which both handlers resolve by closing.
      if (conn->flushing) {
        HandleWritable(conn);
      } else {
        HandleReadable(conn);
      }
    }
    DrainCompletions();
    if (Clock::now() >= next_sweep) {
      SweepDeadlines();
      next_sweep = Clock::now() + std::chrono::milliseconds(kPollSliceMs);
    }
    // Reap closed connections only after the event batch: epoll may have
    // reported several events for a connection the first one killed, and
    // those later events still dereference the tag.
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Conn>& c) {
                                  return c->dead;
                                }),
                 conns_.end());
  }
}

void NetLogServer::LoopAccept() {
  while (true) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) {
      return;  // EAGAIN (backlog drained) or transient error; wait for epoll
    }
    sessions_opened_.fetch_add(1);
    Metrics().sessions->Increment();
    Metrics().active_sessions->Add(1);
    auto conn = std::make_unique<Conn>(std::move(accepted).value(),
                                       options_.max_frame_body);
    if (options_.accept_sndbuf > 0) {
      (void)conn->state.socket().SetSendBufferSize(options_.accept_sndbuf);
    }
    if (!conn->state.socket().SetNonBlocking(true).ok()) {
      Metrics().active_sessions->Add(-1);
      continue;  // conn destructor closes the socket
    }
    conn->dispatcher.emplace(
        partitioned_,
        [this](const AppendRequest& request) { return RouteAppend(request); },
        [this] { return EvaluateServerHealth(); });
    conn->idle_deadline =
        Clock::now() + std::chrono::milliseconds(options_.idle_timeout_ms);
    Conn* raw = conn.get();
    if (!loop_.Add(raw->state.socket().fd(), kArmRead, raw).ok()) {
      Metrics().active_sessions->Add(-1);
      continue;
    }
    conns_.push_back(std::move(conn));
  }
}

void NetLogServer::HandleReadable(Conn* conn) {
  switch (conn->state.ReadStep()) {
    case ConnState::ReadOutcome::kNeedMore:
      // A partial frame sitting on the wire is the slow-loris window: arm
      // the stall deadline; completion disarms it.
      if (conn->state.mid_frame() && !conn->io_deadline_armed &&
          options_.session_io_timeout_ms > 0) {
        conn->io_deadline =
            Clock::now() +
            std::chrono::milliseconds(options_.session_io_timeout_ms);
        conn->io_deadline_armed = true;
      }
      if (!loop_.Modify(conn->state.socket().fd(), kArmRead, conn).ok()) {
        CloseConn(conn);
      }
      return;
    case ConnState::ReadOutcome::kFrame: {
      conn->io_deadline_armed = false;
      Metrics().bytes_in->Increment(conn->state.frame_wire_bytes());
      RecordStage(nullptr, TraceStage::kSessionRead,
                  conn->state.header().trace_id, conn->state.frame_start_us(),
                  TraceNowUs() - conn->state.frame_start_us());
      // Park: the event that brought the frame disarmed the connection,
      // and it stays disarmed until its worker re-arms it.
      conn->owner.store(Conn::Owner::kWorker, std::memory_order_relaxed);
      conn->enqueued_us = TraceNowUs();
      {
        std::lock_guard<std::mutex> lock(work_mu_);
        work_queue_.push_back(conn);
      }
      Metrics().queue_depth->Add(1);
      work_cv_.notify_one();
      return;
    }
    case ConnState::ReadOutcome::kPeerClosed:
      CloseConn(conn);
      return;
    case ConnState::ReadOutcome::kBadFrame:
      frames_rejected_.fetch_add(1);
      Metrics().rejected->Increment();
      CloseConn(conn);
      return;
    case ConnState::ReadOutcome::kError:
      CloseConn(conn);
      return;
  }
}

void NetLogServer::HandleWritable(Conn* conn) { FlushReply(conn); }

void NetLogServer::FlushReply(Conn* conn) {
  switch (conn->state.FlushStep()) {
    case ConnState::FlushOutcome::kDone: {
      Metrics().bytes_out->Increment(conn->state.reply_wire_bytes());
      RecordStage(Metrics().stage_flush_us, TraceStage::kReplyWrite,
                  conn->trace_id, conn->flush_start_us,
                  TraceNowUs() - conn->flush_start_us);
      conn->io_deadline_armed = false;
      if (stopping_.load()) {
        CloseConn(conn);  // drained: answered, now gone
        return;
      }
      conn->flushing = false;
      conn->idle_deadline =
          Clock::now() + std::chrono::milliseconds(options_.idle_timeout_ms);
      if (!loop_.Modify(conn->state.socket().fd(), kArmRead, conn).ok()) {
        CloseConn(conn);
      }
      return;
    }
    case ConnState::FlushOutcome::kAgain:
      conn->flushing = true;
      if (!loop_.Modify(conn->state.socket().fd(), kArmWrite, conn).ok()) {
        CloseConn(conn);
        return;
      }
      // Stall limit since the last would-block; progress re-arms it, so
      // only a peer draining nothing at all hits it (matching the old
      // per-send SO_SNDTIMEO).
      if (options_.session_io_timeout_ms > 0) {
        conn->io_deadline =
            Clock::now() +
            std::chrono::milliseconds(options_.session_io_timeout_ms);
        conn->io_deadline_armed = true;
      }
      return;
    case ConnState::FlushOutcome::kError:
      CloseConn(conn);
      return;
  }
}

void NetLogServer::DrainCompletions() {
  std::vector<Conn*> done;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done.swap(done_queue_);
  }
  for (Conn* conn : done) {
    // done_mu_ orders the worker's writes before these.
    conn->owner.store(Conn::Owner::kLoop, std::memory_order_relaxed);
    if (conn->state.has_pending_reply()) {
      // The worker stamped flush_start_us before its inline attempt, so a
      // partially-flushed reply keeps its true start time here.
      FlushReply(conn);
    } else if (!stopping_.load()) {
      // Flushed inline, then handed back: the loop took the re-armed
      // event before the worker's release, or the re-arm itself failed.
      // Read now; a read that would block re-arms (or closes) it. While
      // stopping, the drain sweep closes it instead.
      HandleReadable(conn);
    }
  }
}

void NetLogServer::SweepDeadlines() {
  const auto now = Clock::now();
  for (auto& conn : conns_) {
    if (conn->dead || !conn->loop_owns()) {
      continue;
    }
    if (conn->io_deadline_armed && now >= conn->io_deadline) {
      CloseConn(conn.get());  // slow-loris or never-draining peer
      continue;
    }
    const bool idle = !conn->flushing && !conn->state.mid_frame();
    if (idle && options_.idle_timeout_ms > 0 && now >= conn->idle_deadline) {
      sessions_idle_closed_.fetch_add(1);
      Metrics().idle_closed->Increment();
      CloseConn(conn.get());
    }
  }
}

void NetLogServer::CloseConn(Conn* conn) {
  if (conn->dead) {
    return;
  }
  conn->dead = true;
  (void)loop_.Remove(conn->state.socket().fd());
  conn->state.socket().Close();
  Metrics().active_sessions->Add(-1);
}

void NetLogServer::WorkerMain() {
  while (true) {
    Conn* conn = nullptr;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] {
        return !work_queue_.empty() || stopping_.load();
      });
      if (work_queue_.empty()) {
        return;  // stopping and drained
      }
      conn = work_queue_.front();
      work_queue_.pop_front();
    }
    Metrics().queue_depth->Add(-1);
    const uint64_t start_us = TraceNowUs();
    Metrics().stage_queue_us->Record(start_us - conn->enqueued_us);
    const FrameHeader request = conn->state.header();
    conn->trace_id = request.trace_id;
    WireMessage reply;
    {
      // Every span recorded below — dispatch, batch wait, volume append,
      // force, burn — attaches to this request's trace.
      ScopedTraceContext trace_scope(request.trace_id);
      reply = conn->dispatcher->Dispatch(static_cast<LogOp>(request.op),
                                         conn->state.body());
    }
    Metrics().stage_handle_us->Record(TraceNowUs() - start_us);
    frames_dispatched_.fetch_add(1);
    Metrics().frames->Increment();
    FrameHeader reply_header;
    reply_header.op = request.op;
    reply_header.request_id = request.request_id;
    reply_header.trace_id = request.trace_id;
    // Echo the peer's version: a v1 client rejects any other version and
    // reads exactly 24 header bytes, so it must get a v1 reply.
    reply_header.version = request.version;
    reply_header.body_size = static_cast<uint32_t>(reply.total_bytes());
    // Zero-copy accounting happens here, before the first byte can reach
    // the peer: any observer that already holds the reply (a test reading
    // the counter, a stats scrape) then sees it included. Counting after
    // the sendmsg would race that observer and lose on a single core.
    if (reply.borrowed_bytes() > 0) {
      Metrics().zerocopy_bytes->Increment(reply.borrowed_bytes());
    }
    conn->state.ResetRead();
    conn->state.BeginReply(reply_header, std::move(reply));
    conn->flush_start_us = TraceNowUs();
    // Fast path: flush inline while the connection is still parked. A
    // reply the kernel accepts whole skips the done-queue handoff (lock,
    // eventfd wake, loop dispatch, two context switches) — the common
    // case, and on few-core hosts a large share of a small request's cost.
    // Would-block, errors, and shutdown fall back to the loop thread, which
    // owns EPOLLOUT arming and connection close.
    if (!stopping_.load() &&
        conn->state.FlushStep() == ConnState::FlushOutcome::kDone) {
      Metrics().bytes_out->Increment(conn->state.reply_wire_bytes());
      RecordStage(Metrics().stage_flush_us, TraceStage::kReplyWrite,
                  conn->trace_id, conn->flush_start_us,
                  TraceNowUs() - conn->flush_start_us);
      conn->io_deadline_armed = false;
      conn->idle_deadline =
          Clock::now() + std::chrono::milliseconds(options_.idle_timeout_ms);
      // Re-arm BEFORE the release: the reverse order would let the loop's
      // idle/drain sweep close the fd out from under the Modify and race a
      // reused descriptor. An event the re-arm lets through before the
      // release finds the connection still ours; the loop marks it, and
      // the release below hands it back instead.
      Conn::Owner owner = Conn::Owner::kWorker;
      if (loop_.Modify(conn->state.socket().fd(), kArmRead, conn).ok() &&
          conn->owner.compare_exchange_strong(owner, Conn::Owner::kLoop,
                                              std::memory_order_release,
                                              std::memory_order_relaxed)) {
        continue;
      }
      // A failed Modify is handed back too; the loop's read re-arms or
      // closes. kError falls through as well: the loop's retry hits the
      // same error and closes the connection on its own thread.
    }
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      done_queue_.push_back(conn);
    }
    loop_.Wake();
  }
}

}  // namespace clio
