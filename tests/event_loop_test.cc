// Event-loop server tests: partial-frame state machine behaviour under
// slow and hostile clients, write backpressure on the zero-copy flush
// path, connection churn, and byte-for-byte equivalence between the
// server's zero-copy replies and the flat reference encoder (DESIGN.md §16).
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/ipc/codec.h"
#include "src/net/frame.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"
#include "src/partition/partitioned_service.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;
using testing::ServiceFixture;

// True once the peer has hung up on `socket` (clean EOF or reset).
bool ConnectionDropped(TcpSocket* socket) {
  Bytes sink(1);
  auto n = socket->ReadFull(sink);
  return !n.ok() || *n == 0;
}

// Spins until `done` holds or ~5 s pass; returns the final verdict. The
// event loop sweeps deadlines and reaps connections on its own schedule,
// so tests observe its side effects with a bounded poll.
template <typename Predicate>
bool Eventually(Predicate done) {
  for (int i = 0; i < 500; ++i) {
    if (done()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

Bytes RequestFrame(LogOp op, uint64_t request_id,
                   std::span<const std::byte> body, uint64_t trace_id = 0) {
  FrameHeader request;
  request.op = static_cast<uint32_t>(op);
  request.request_id = request_id;
  request.body_size = static_cast<uint32_t>(body.size());
  request.trace_id = trace_id;
  return EncodeFrame(request, body);
}

// Reads the next COMPLETE raw reply — prefix, version extension, and body,
// exactly as they crossed the wire.
Result<Bytes> ReadRawReply(TcpSocket* socket) {
  Bytes reply(kFrameHeaderSize);
  CLIO_ASSIGN_OR_RETURN(size_t n, socket->ReadFull(reply));
  if (n != kFrameHeaderSize) {
    return Unavailable("server closed the connection");
  }
  CLIO_ASSIGN_OR_RETURN(FrameHeader header, DecodeFramePrefix(reply));
  const size_t ext = FrameExtensionSize(header.version);
  reply.resize(kFrameHeaderSize + ext + header.body_size);
  auto rest = std::span<std::byte>(reply).subspan(kFrameHeaderSize);
  if (!rest.empty()) {
    CLIO_ASSIGN_OR_RETURN(n, socket->ReadFull(rest));
    if (n != rest.size()) {
      return Unavailable("server closed mid-reply");
    }
  }
  return reply;
}

// Sends one request frame and reads back its raw reply.
Result<Bytes> RawRoundTrip(TcpSocket* socket, LogOp op, uint64_t request_id,
                           std::span<const std::byte> body,
                           uint64_t trace_id = 0) {
  CLIO_RETURN_IF_ERROR(
      socket->WriteAll(RequestFrame(op, request_id, body, trace_id)));
  return ReadRawReply(socket);
}

Bytes PathBody(std::string_view path) {
  Bytes body;
  ByteWriter w(&body);
  w.PutString(path);
  return body;
}

Bytes HandleBody(uint64_t handle) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(handle);
  return body;
}

Bytes ReadBatchBody(uint64_t handle, uint32_t max_entries) {
  Bytes body;
  ByteWriter w(&body);
  w.PutU64(handle);
  w.PutU32(max_entries);
  return body;
}

class EventLoopTest : public ::testing::Test {
 protected:
  void StartServer(NetLogServerOptions options = {}) {
    fx_ = ServiceFixture::Make();
    auto server = NetLogServer::Start(fx_.service.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  std::unique_ptr<NetLogClient> Client() {
    auto client = NetLogClient::Connect(server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  // The server must still answer a fresh, well-behaved client — the
  // postcondition of every hostile-client test.
  void ExpectServerHealthy() {
    auto client = Client();
    auto stats = client->GetStats();
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  ServiceFixture fx_;
  std::unique_ptr<NetLogServer> server_;
};

// ---------------------------------------------------------------------------
// Zero-copy reply path

TEST_F(EventLoopTest, BatchedReadIsServedZeroCopy) {
  StartServer();
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/zc").status());
  Rng rng(0x5EED);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 24; ++i) {
    payloads.push_back(RandomPayload(&rng, 2048));
    ASSERT_OK(client->Append("/zc", payloads.back(), /*timestamped=*/false).status());
  }
  ASSERT_OK(client->Force());

  const uint64_t zerocopy_before =
      ObsRegistry().counter("clio.net.reply.zerocopy_bytes")->value();
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/zc"));
  ASSERT_OK(client->SeekToStart(handle));
  ASSERT_OK_AND_ASSIGN(EntryBatch batch, client->ReadNextBatch(handle, 1000));
  ASSERT_EQ(batch.entries.size(), payloads.size());
  EXPECT_TRUE(batch.at_end);
  size_t payload_bytes = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(batch.entries[i].payload, payloads[i]) << "entry " << i;
    payload_bytes += payloads[i].size();
  }

  // Every payload byte of the batch reply must have been sent straight
  // from pinned block images, never copied into a reply buffer.
  const uint64_t zerocopy_after =
      ObsRegistry().counter("clio.net.reply.zerocopy_bytes")->value();
  EXPECT_GE(zerocopy_after - zerocopy_before, payload_bytes);
  // All flush-time pins must have been released with the reply.
  EXPECT_TRUE(Eventually([] {
    return ObsRegistry().gauge("clio.cache.pinned_blocks")->value() == 0;
  }));
}

// ---------------------------------------------------------------------------
// Hostile and slow clients

TEST_F(EventLoopTest, SlowLorisMidFrameStallIsClosed) {
  NetLogServerOptions options;
  options.session_io_timeout_ms = 200;
  options.idle_timeout_ms = 60'000;  // only the mid-frame deadline may fire
  StartServer(options);

  // Send a valid frame prefix minus its last byte, then stall forever.
  ASSERT_OK_AND_ASSIGN(TcpSocket loris,
                       TcpSocket::ConnectLoopback(server_->port()));
  Bytes frame = EncodeFrame(
      FrameHeader{static_cast<uint32_t>(LogOp::kStats), 1, 0}, {});
  auto partial = std::span<const std::byte>(frame).first(frame.size() - 1);
  ASSERT_OK(loris.WriteAll(partial));

  EXPECT_TRUE(ConnectionDropped(&loris));
  ExpectServerHealthy();
}

TEST_F(EventLoopTest, IdleConnectionWithNoFrameIsClosed) {
  NetLogServerOptions options;
  options.idle_timeout_ms = 150;
  StartServer(options);
  ASSERT_OK_AND_ASSIGN(TcpSocket idle,
                       TcpSocket::ConnectLoopback(server_->port()));
  EXPECT_TRUE(ConnectionDropped(&idle));
  EXPECT_TRUE(Eventually([&] { return server_->sessions_idle_closed() >= 1; }));
  ExpectServerHealthy();
}

TEST_F(EventLoopTest, MidFrameDisconnectCountsRejectedFrame) {
  StartServer();
  {
    ASSERT_OK_AND_ASSIGN(TcpSocket quitter,
                         TcpSocket::ConnectLoopback(server_->port()));
    Bytes frame = EncodeFrame(
        FrameHeader{static_cast<uint32_t>(LogOp::kStats), 1, 0}, {});
    auto partial = std::span<const std::byte>(frame).first(10);
    ASSERT_OK(quitter.WriteAll(partial));
  }  // destructor closes with a frame underway: truncation, not clean EOF
  EXPECT_TRUE(Eventually([&] { return server_->frames_rejected() >= 1; }));
  ExpectServerHealthy();
}

TEST_F(EventLoopTest, GarbageHeaderClosesOnlyThatConnection) {
  StartServer();
  auto client = Client();  // healthy session, opened first
  ASSERT_OK(client->CreateLogFile("/survivor").status());

  ASSERT_OK_AND_ASSIGN(TcpSocket vandal,
                       TcpSocket::ConnectLoopback(server_->port()));
  Bytes garbage(kFrameHeaderSize);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::byte>(0xA5 ^ (i * 37));
  }
  ASSERT_OK(vandal.WriteAll(garbage));
  EXPECT_TRUE(ConnectionDropped(&vandal));
  EXPECT_TRUE(Eventually([&] { return server_->frames_rejected() >= 1; }));

  // The pre-existing session rides on, unaffected.
  ASSERT_OK(client->Append("/survivor", AsBytes("still here"), true).status());
}

// ---------------------------------------------------------------------------
// Write backpressure

TEST_F(EventLoopTest, HugeBatchedReplyDrainsThroughTinySendBuffer) {
  NetLogServerOptions options;
  options.accept_sndbuf = 8 * 1024;  // force the partial-flush path
  StartServer(options);
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/big").status());
  Rng rng(0xB16);
  std::vector<Bytes> payloads;
  for (int i = 0; i < 96; ++i) {
    payloads.push_back(RandomPayload(&rng, 8 * 1024));
    ASSERT_OK(client->Append("/big", payloads.back(), /*timestamped=*/false).status());
  }
  ASSERT_OK(client->Force());

  // Drive the read raw so the reply (~768 KiB against an 8 KiB SO_SNDBUF)
  // sits unread while the server is mid-flush: the kernel buffer fills,
  // sendmsg() short-writes, and the loop must finish over EPOLLOUT.
  ASSERT_OK_AND_ASSIGN(TcpSocket raw,
                       TcpSocket::ConnectLoopback(server_->port()));
  ASSERT_OK_AND_ASSIGN(
      Bytes open_reply,
      RawRoundTrip(&raw, LogOp::kOpenReader, 1, PathBody("/big")));
  ASSERT_OK_AND_ASSIGN(FrameHeader open_header, DecodeFrameHeader(open_reply));
  auto open_body = std::span<const std::byte>(open_reply)
                       .subspan(open_reply.size() - open_header.body_size);
  ASSERT_OK_AND_ASSIGN(Bytes open_payload, DecodeReplyBody(open_body));
  ByteReader handle_reader(open_payload);
  const uint64_t handle = handle_reader.GetU64();
  ASSERT_OK(
      RawRoundTrip(&raw, LogOp::kSeekToStart, 2, HandleBody(handle)).status());

  FrameHeader request;
  request.op = static_cast<uint32_t>(LogOp::kReadBatch);
  request.request_id = 3;
  Bytes body = ReadBatchBody(handle, 1000);
  request.body_size = static_cast<uint32_t>(body.size());
  Bytes wire = EncodeFrame(request, body);
  ASSERT_OK(raw.WriteAll(wire));
  // Let the server hit the kernel-buffer wall while we are not reading.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  Bytes reply(kFrameHeaderSize);
  ASSERT_OK_AND_ASSIGN(size_t n, raw.ReadFull(reply));
  ASSERT_EQ(n, kFrameHeaderSize);
  ASSERT_OK_AND_ASSIGN(FrameHeader header, DecodeFramePrefix(reply));
  Bytes rest(FrameExtensionSize(header.version) + header.body_size);
  ASSERT_OK_AND_ASSIGN(n, raw.ReadFull(rest));
  ASSERT_EQ(n, rest.size());

  auto reply_body = std::span<const std::byte>(rest).subspan(
      FrameExtensionSize(header.version));
  ASSERT_OK_AND_ASSIGN(Bytes payload, DecodeReplyBody(reply_body));
  ASSERT_OK_AND_ASSIGN(EntryBatch batch, DecodeEntryBatch(payload));
  ASSERT_EQ(batch.entries.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_EQ(batch.entries[i].payload, payloads[i]) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Pipelining

// Frames written back to back on one connection are served one at a time
// and answered in order. While a worker owns the connection the next frame
// already waits on the socket; the loop must not spin on that readiness
// (a few wakeups per frame: the frame's own read, at most one event caught
// before a worker's release, the idle poll slice).
TEST_F(EventLoopTest, PipelinedFramesAnswerInOrderWithoutSpinning) {
  StartServer();
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/pipe").status());
  ASSERT_OK_AND_ASSIGN(TcpSocket raw,
                       TcpSocket::ConnectLoopback(server_->port()));
  constexpr uint64_t kFrames = 64;
  Bytes wire;
  for (uint64_t id = 1; id <= kFrames; ++id) {
    const Bytes frame = RequestFrame(LogOp::kStat, id, PathBody("/pipe"));
    wire.insert(wire.end(), frame.begin(), frame.end());
  }

  Counter* wakeups = ObsRegistry().counter("clio.net.loop.wakeups");
  const uint64_t wakeups_before = wakeups->value();
  ASSERT_OK(raw.WriteAll(wire));
  for (uint64_t id = 1; id <= kFrames; ++id) {
    ASSERT_OK_AND_ASSIGN(Bytes reply, ReadRawReply(&raw));
    ASSERT_OK_AND_ASSIGN(FrameHeader header, DecodeFrameHeader(reply));
    EXPECT_EQ(header.op, static_cast<uint32_t>(LogOp::kStat));
    ASSERT_EQ(header.request_id, id);
    auto body = std::span<const std::byte>(reply).subspan(
        reply.size() - header.body_size);
    EXPECT_TRUE(DecodeReplyBody(body).ok()) << "frame " << id;
  }
  EXPECT_LE(wakeups->value() - wakeups_before, 4 * kFrames);
}

// ---------------------------------------------------------------------------
// Connection churn

TEST_F(EventLoopTest, AcceptAndTeardownChurnInRounds) {
  StartServer();
  constexpr size_t kRounds = 4;
  constexpr size_t kPerRound = 250;
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<TcpSocket> sockets;
    sockets.reserve(kPerRound);
    for (size_t i = 0; i < kPerRound; ++i) {
      auto socket = TcpSocket::ConnectLoopback(server_->port());
      ASSERT_TRUE(socket.ok())
          << "round " << round << " conn " << i << ": "
          << socket.status().ToString();
      sockets.push_back(std::move(socket).value());
    }
    // Every fourth connection does a real request; the rest just churn the
    // accept/teardown path.
    for (size_t i = 0; i < sockets.size(); i += 4) {
      ASSERT_OK_AND_ASSIGN(
          Bytes reply, RawRoundTrip(&sockets[i], LogOp::kStats, i + 1, {}));
      ASSERT_OK_AND_ASSIGN(FrameHeader header, DecodeFrameHeader(reply));
      EXPECT_EQ(header.op, static_cast<uint32_t>(LogOp::kStats));
      EXPECT_EQ(header.request_id, i + 1);
    }
    sockets.clear();  // mass teardown
  }
  EXPECT_TRUE(Eventually(
      [&] { return server_->sessions_opened() >= kRounds * kPerRound; }));
  // Mass disconnects on frame boundaries are clean closes, not rejects.
  EXPECT_EQ(server_->frames_rejected(), 0u);
  ExpectServerHealthy();
}

// ---------------------------------------------------------------------------
// A/B wire equivalence

// The event loop's zero-copy replies answer a request script, error
// replies included, with the bytes the flat reference encoders
// (EncodeOkReplyBody, EncodeEntryRecord, EncodeEntryBatch,
// EncodeErrorReplyBody, EncodeLogFileInfo) give for the same steps on an
// in-process reader left in flat mode. Any divergence is the scatter
// encoding's fault.
TEST(EventLoopAbTest, BothModesProduceByteIdenticalReplies) {
  ServiceFixture fx = ServiceFixture::Make();

  auto event_server = NetLogServer::Start(fx.service.get());
  ASSERT_TRUE(event_server.ok()) << event_server.status().ToString();
  {
    // Seed through the server; entries with payloads spanning several
    // 1 KiB blocks exercise multi-segment scatter replies.
    auto writer = NetLogClient::Connect((*event_server)->port());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_OK((*writer)->CreateLogFile("/ab").status());
    Rng rng(0xAB);
    for (int i = 0; i < 12; ++i) {
      ASSERT_OK((*writer)
                    ->Append("/ab", RandomPayload(&rng, 100 + i * 700),
                             /*force=*/false)
                    .status());
    }
    ASSERT_OK((*writer)->Force());
  }
  // Wrapped after the seeding, so the view has learned "/ab".
  ASSERT_OK_AND_ASSIGN(auto view,
                       PartitionedLogService::Wrap(fx.service.get()));
  ASSERT_OK_AND_ASSIGN(auto reader, view->OpenReader("/ab"));

  auto read_one = [&](bool forward) {
    auto record = forward ? reader->Next() : reader->Prev();
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    return EncodeOkReplyBody(EncodeEntryRecord(record.value()));
  };
  // The dispatcher's 4 MiB batch budget is far above this log's ~47 KB,
  // so a batch ends at `max_entries` or at the end of the log.
  auto read_batch = [&](uint32_t max_entries) {
    std::vector<LogEntryRecord> records;
    bool at_end = false;
    while (records.size() < max_entries) {
      auto record = reader->Next();
      EXPECT_TRUE(record.ok()) << record.status().ToString();
      if (!record.ok() || !record->has_value()) {
        at_end = true;
        break;
      }
      records.push_back(std::move(**record));
    }
    return EncodeOkReplyBody(EncodeEntryBatch(records, at_end));
  };
  auto stat = [&](std::string_view path) {
    auto info = view->Stat(path);
    return info.ok() ? EncodeOkReplyBody(EncodeLogFileInfo(*info))
                     : EncodeErrorReplyBody(info.status());
  };
  const Bytes no_handle =
      EncodeErrorReplyBody(NotFound("no such reader handle"));

  // A fresh session numbers its first reader 1.
  constexpr uint64_t kHandle = 1;
  struct Step {
    LogOp op;
    Bytes body;
    std::function<Bytes()> expected;  // run in script order
  };
  const std::vector<Step> script = {
      {LogOp::kOpenReader, PathBody("/ab"),
       [] { return EncodeOkReplyBody(HandleBody(kHandle)); }},
      {LogOp::kSeekToStart, HandleBody(kHandle),
       [&] {
         reader->SeekToStart();
         return EncodeOkReplyBody();
       }},
      {LogOp::kReadBatch, ReadBatchBody(kHandle, 5),
       [&] { return read_batch(5); }},
      {LogOp::kReadNext, HandleBody(kHandle), [&] { return read_one(true); }},
      {LogOp::kReadBatch, ReadBatchBody(kHandle, 1000),
       [&] { return read_batch(1000); }},
      {LogOp::kSeekToEnd, HandleBody(kHandle),
       [&] {
         reader->SeekToEnd();
         return EncodeOkReplyBody();
       }},
      {LogOp::kReadPrev, HandleBody(kHandle), [&] { return read_one(false); }},
      {LogOp::kStat, PathBody("/ab"), [&] { return stat("/ab"); }},
      {LogOp::kStat, PathBody("/missing"), [&] { return stat("/missing"); }},
      {LogOp::kReadNext, HandleBody(~0ull), [&] { return no_handle; }},
      {LogOp::kReadBatch, ReadBatchBody(~0ull, 4), [&] { return no_handle; }},
  };

  ASSERT_OK_AND_ASSIGN(TcpSocket to_event,
                       TcpSocket::ConnectLoopback((*event_server)->port()));
  const uint64_t zerocopy_before =
      ObsRegistry().counter("clio.net.reply.zerocopy_bytes")->value();
  for (size_t i = 0; i < script.size(); ++i) {
    const Step& step = script[i];
    const uint64_t request_id = 100 + i;
    const uint64_t trace_id = 7'000 + i;
    ASSERT_OK_AND_ASSIGN(
        Bytes event_reply,
        RawRoundTrip(&to_event, step.op, request_id, step.body, trace_id));
    ASSERT_OK_AND_ASSIGN(FrameHeader header, DecodeFrameHeader(event_reply));
    EXPECT_EQ(header.op, static_cast<uint32_t>(step.op));
    EXPECT_EQ(header.request_id, request_id);
    EXPECT_EQ(header.trace_id, trace_id);
    const Bytes event_body(event_reply.end() - header.body_size,
                           event_reply.end());
    EXPECT_EQ(event_body, step.expected())
        << "step " << i << " (op " << static_cast<uint32_t>(step.op)
        << "): scatter reply diverges from the flat encoder";
  }
  // The batch payloads really left as borrowed slices.
  EXPECT_GT(ObsRegistry().counter("clio.net.reply.zerocopy_bytes")->value(),
            zerocopy_before);

  (*event_server)->Stop();
}

// Stop() with a flushed-but-unread reply still delivers the bytes: the
// drain path lets flushing connections finish before their sockets close.
TEST_F(EventLoopTest, StopDrainsInFlightRequests) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(TcpSocket raw,
                       TcpSocket::ConnectLoopback(server_->port()));
  ASSERT_OK_AND_ASSIGN(Bytes reply, RawRoundTrip(&raw, LogOp::kStats, 9, {}));
  ASSERT_OK_AND_ASSIGN(FrameHeader header, DecodeFrameHeader(reply));
  EXPECT_EQ(header.request_id, 9u);
  server_->Stop();
  // After a graceful stop the socket reports EOF, not a reset.
  EXPECT_TRUE(ConnectionDropped(&raw));
}

}  // namespace
}  // namespace clio
