// Frame codec, network server robustness, and group-commit tests.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/clio/verify.h"
#include "src/device/fault_injection.h"
#include "src/net/batcher.h"
#include "src/net/dedup.h"
#include "src/net/frame.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/net/socket.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::ServiceFixture;

// True once the peer has hung up on `socket`: a read yields either a clean
// EOF or a reset (the kernel sends RST when a socket closes with unread
// bytes still buffered — exactly what rejecting garbage mid-stream does).
bool ConnectionDropped(TcpSocket* socket) {
  Bytes sink(1);
  auto n = socket->ReadFull(sink);
  return !n.ok() || *n == 0;
}

// Reads one complete reply header off the socket the way a real endpoint
// does: the 24-byte prefix first, then whatever extension the advertised
// version calls for.
Result<FrameHeader> ReadReplyHeader(TcpSocket* socket) {
  Bytes prefix(kFrameHeaderSize);
  CLIO_ASSIGN_OR_RETURN(size_t n, socket->ReadFull(prefix));
  if (n != kFrameHeaderSize) {
    return Unavailable("server closed the connection");
  }
  CLIO_ASSIGN_OR_RETURN(FrameHeader header, DecodeFramePrefix(prefix));
  const size_t ext_size = FrameExtensionSize(header.version);
  if (ext_size > 0) {
    Bytes ext(ext_size);
    CLIO_ASSIGN_OR_RETURN(n, socket->ReadFull(ext));
    if (n != ext_size) {
      return Unavailable("server closed mid-header");
    }
    CLIO_RETURN_IF_ERROR(DecodeFrameExtension(ext, &header));
  }
  return header;
}

// ---------------------------------------------------------------------------
// Frame codec

TEST(Frame, HeaderRoundTrip) {
  FrameHeader header;
  header.op = 7;
  header.request_id = 0x1122334455667788ull;
  header.trace_id = 0xCAFEF00DDEADBEEFull;
  Bytes body = ToBytes("hello frame");
  header.body_size = static_cast<uint32_t>(body.size());

  Bytes wire = EncodeFrame(header, body);
  ASSERT_EQ(wire.size(), kFrameHeaderSizeV2 + body.size());
  ASSERT_OK_AND_ASSIGN(FrameHeader decoded, DecodeFrameHeader(wire));
  EXPECT_EQ(decoded.op, 7u);
  EXPECT_EQ(decoded.request_id, 0x1122334455667788ull);
  EXPECT_EQ(decoded.trace_id, 0xCAFEF00DDEADBEEFull);
  EXPECT_EQ(decoded.version, kFrameVersion);
  EXPECT_EQ(decoded.body_size, body.size());
  EXPECT_EQ(ToString(std::span(wire).subspan(kFrameHeaderSizeV2)),
            "hello frame");
}

TEST(Frame, EmptyBodyRoundTrip) {
  Bytes wire = EncodeFrame(FrameHeader{3, 9, 0}, {});
  ASSERT_EQ(wire.size(), kFrameHeaderSizeV2);
  ASSERT_OK_AND_ASSIGN(FrameHeader decoded, DecodeFrameHeader(wire));
  EXPECT_EQ(decoded.op, 3u);
  EXPECT_EQ(decoded.body_size, 0u);
  EXPECT_EQ(decoded.trace_id, 0u);
}

TEST(Frame, EncodesLegacyV1HeaderWithoutTraceExtension) {
  FrameHeader header;
  header.op = 7;
  header.request_id = 21;
  header.trace_id = 555;  // must not reach the wire in a v1 frame
  header.version = kFrameVersionLegacy;
  Bytes body = ToBytes("v1 body");
  Bytes wire = EncodeFrame(header, body);
  // Exactly the 24-byte prefix, version 1, body immediately after.
  ASSERT_EQ(wire.size(), kFrameHeaderSize + body.size());
  EXPECT_EQ(LoadU16(wire, 4), kFrameVersionLegacy);
  EXPECT_EQ(LoadU32(wire, 20), body.size());
  EXPECT_EQ(ToString(std::span(wire).subspan(kFrameHeaderSize)), "v1 body");
  ASSERT_OK_AND_ASSIGN(FrameHeader decoded, DecodeFrameHeader(wire));
  EXPECT_EQ(decoded.version, kFrameVersionLegacy);
  EXPECT_EQ(decoded.trace_id, 0u);
}

TEST(Frame, LegacyV1HeaderDecodesWithZeroTraceId) {
  // A v1 peer's header is just the 24-byte prefix: downgrade an encoded
  // frame in place and drop the extension.
  Bytes wire = EncodeFrame(FrameHeader{7, 21, 0, /*trace_id=*/555}, {});
  StoreU16(wire, 4, kFrameVersionLegacy);
  wire.resize(kFrameHeaderSize);
  ASSERT_OK_AND_ASSIGN(FrameHeader decoded, DecodeFrameHeader(wire));
  EXPECT_EQ(decoded.version, kFrameVersionLegacy);
  EXPECT_EQ(decoded.op, 7u);
  EXPECT_EQ(decoded.request_id, 21u);
  EXPECT_EQ(decoded.trace_id, 0u);  // v1 has no trace extension
  EXPECT_EQ(FrameExtensionSize(decoded.version), 0u);
}

TEST(Frame, TruncatedTraceExtensionIsCorrupt) {
  Bytes wire = EncodeFrame(FrameHeader{7, 21, 0, /*trace_id=*/555}, {});
  wire.resize(kFrameHeaderSizeV2 - 1);  // prefix intact, extension cut
  EXPECT_EQ(DecodeFrameHeader(wire).status().code(), StatusCode::kCorrupt);
  // The prefix alone still decodes; only the extension read fails.
  ASSERT_OK(DecodeFramePrefix(wire).status());
}

TEST(Frame, RejectsTruncatedHeader) {
  Bytes wire = EncodeFrame(FrameHeader{1, 1, 0}, {});
  wire.resize(kFrameHeaderSize - 1);
  EXPECT_EQ(DecodeFrameHeader(wire).status().code(), StatusCode::kCorrupt);
}

TEST(Frame, RejectsBadMagic) {
  Bytes wire = EncodeFrame(FrameHeader{1, 1, 0}, {});
  wire[0] = std::byte{0xEE};
  EXPECT_EQ(DecodeFrameHeader(wire).status().code(), StatusCode::kCorrupt);
}

TEST(Frame, RejectsWrongVersion) {
  Bytes wire = EncodeFrame(FrameHeader{1, 1, 0}, {});
  StoreU16(wire, 4, kFrameVersion + 1);
  EXPECT_EQ(DecodeFrameHeader(wire).status().code(), StatusCode::kCorrupt);
}

TEST(Frame, RejectsReservedFlags) {
  Bytes wire = EncodeFrame(FrameHeader{1, 1, 0}, {});
  StoreU16(wire, 6, 1);
  EXPECT_EQ(DecodeFrameHeader(wire).status().code(), StatusCode::kCorrupt);
}

TEST(Frame, RejectsOversizedBody) {
  Bytes wire = EncodeFrame(FrameHeader{1, 1, 0}, {});
  StoreU32(wire, 20, kMaxFrameBodySize + 1);
  EXPECT_EQ(DecodeFrameHeader(wire).status().code(), StatusCode::kCorrupt);
  // A smaller per-server cap applies too.
  StoreU32(wire, 20, 1024);
  EXPECT_EQ(DecodeFrameHeader(wire, /*max_body_size=*/512).status().code(),
            StatusCode::kCorrupt);
  ASSERT_OK(DecodeFrameHeader(wire, /*max_body_size=*/1024).status());
}

TEST(Frame, GarbageBytesDoNotDecode) {
  Bytes garbage(kFrameHeaderSize);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::byte>(0xA5 ^ (i * 37));
  }
  EXPECT_FALSE(DecodeFrameHeader(garbage).ok());
}

// ---------------------------------------------------------------------------
// Server fixture

class NetServerTest : public ::testing::Test {
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

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  ServiceFixture fx_;
  std::unique_ptr<NetLogServer> server_;
};

TEST_F(NetServerTest, CreateAppendReadOverTcp) {
  StartServer();
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/remote").status());
  ASSERT_OK_AND_ASSIGN(Timestamp first,
                       client->Append("/remote", AsBytes("one"), true));
  ASSERT_OK_AND_ASSIGN(Timestamp second,
                       client->Append("/remote", AsBytes("two"), true,
                                      /*force=*/true));
  EXPECT_GT(second, first);
  {
    // A forced append is on the medium when it is acknowledged: the two
    // entries fit one block, and only the force burns it. The write lock
    // orders this read after the commit thread's burn.
    auto lock = fx_.service->LockForWrite();
    EXPECT_GE(fx_.service->current_volume()->end_block(), 2u);
  }

  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/remote"));
  ASSERT_OK(client->SeekToStart(handle));
  ASSERT_OK_AND_ASSIGN(auto a, client->ReadNext(handle));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(ToString(a->payload), "one");
  EXPECT_EQ(a->timestamp, first);
  EXPECT_TRUE(a->timestamp_exact);
  ASSERT_OK_AND_ASSIGN(auto b, client->ReadNext(handle));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(ToString(b->payload), "two");
  ASSERT_OK_AND_ASSIGN(auto end, client->ReadNext(handle));
  EXPECT_FALSE(end.has_value());

  ASSERT_OK(client->SeekToEnd(handle));
  ASSERT_OK_AND_ASSIGN(auto last, client->ReadPrev(handle));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(ToString(last->payload), "two");
  ASSERT_OK(client->CloseReader(handle));
}

TEST_F(NetServerTest, BatchReadDrainsTheLogInOrder) {
  StartServer();
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/batched").status());
  constexpr int kEntries = 100;
  std::vector<Timestamp> stamps;
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_OK_AND_ASSIGN(Timestamp ts,
                         client->Append("/batched",
                                        AsBytes("entry-" + std::to_string(i)),
                                        /*timestamped=*/true,
                                        /*force=*/i == kEntries - 1));
    stamps.push_back(ts);
  }

  const uint64_t zerocopy_before =
      ObsRegistry().counter("clio.net.reply.zerocopy_bytes")->value();
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/batched"));
  // A full batch stops at max_entries without claiming end-of-log.
  ASSERT_OK_AND_ASSIGN(EntryBatch first, client->ReadNextBatch(handle, 32));
  ASSERT_EQ(first.entries.size(), 32u);
  EXPECT_FALSE(first.at_end);
  // The default server serves batch payloads zero-copy from pinned block
  // images (DESIGN.md §16); the payload bytes must register as borrowed.
  EXPECT_GT(ObsRegistry().counter("clio.net.reply.zerocopy_bytes")->value(),
            zerocopy_before);
  EXPECT_EQ(ToString(first.entries.front().payload), "entry-0");
  EXPECT_EQ(ToString(first.entries.back().payload), "entry-31");

  // The batch cursor is the same server-side cursor: a single ReadNext
  // continues exactly where the batch left off.
  ASSERT_OK_AND_ASSIGN(auto single, client->ReadNext(handle));
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(ToString(single->payload), "entry-32");

  // Drain the rest through the iterator.
  BatchedReader reader(client.get(), handle, /*batch_size=*/32);
  for (int i = 33; i < kEntries; ++i) {
    ASSERT_OK_AND_ASSIGN(auto entry, reader.Next());
    ASSERT_TRUE(entry.has_value()) << "entry " << i;
    EXPECT_EQ(ToString(entry->payload), "entry-" + std::to_string(i));
  }
  ASSERT_OK_AND_ASSIGN(auto end, reader.Next());
  EXPECT_FALSE(end.has_value());

  // Tailing: end-of-log is not sticky. New appends show up on the next
  // Next() call.
  ASSERT_OK(client->Append("/batched", AsBytes("late"), true).status());
  ASSERT_OK_AND_ASSIGN(auto late, reader.Next());
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(ToString(late->payload), "late");

  // From the end of the log, a seek to a middle entry's exact time leaves
  // that entry for ReadPrev and the one after it for the next ReadNext.
  ASSERT_OK(client->SeekToTime(handle, stamps[50]));
  ASSERT_OK_AND_ASSIGN(auto at, client->ReadPrev(handle));
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(ToString(at->payload), "entry-50");
  EXPECT_EQ(at->timestamp, stamps[50]);
  ASSERT_OK_AND_ASSIGN(auto again, client->ReadNext(handle));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(ToString(again->payload), "entry-50");
  ASSERT_OK_AND_ASSIGN(auto after, client->ReadNext(handle));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(ToString(after->payload), "entry-51");
  ASSERT_OK(client->CloseReader(handle));
}

TEST_F(NetServerTest, BatchReadShortFinalBatchReportsEnd) {
  StartServer();
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/short").status());
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(client->Append("/short", AsBytes(std::to_string(i)), true)
                  .status());
  }
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/short"));
  ASSERT_OK_AND_ASSIGN(EntryBatch a, client->ReadNextBatch(handle, 3));
  EXPECT_EQ(a.entries.size(), 3u);
  EXPECT_FALSE(a.at_end);
  ASSERT_OK_AND_ASSIGN(EntryBatch b, client->ReadNextBatch(handle, 3));
  EXPECT_EQ(b.entries.size(), 2u);
  EXPECT_TRUE(b.at_end);
  ASSERT_OK_AND_ASSIGN(EntryBatch c, client->ReadNextBatch(handle, 3));
  EXPECT_TRUE(c.entries.empty());
  EXPECT_TRUE(c.at_end);
  EXPECT_EQ(client->ReadNextBatch(999, 3).status().code(),
            StatusCode::kNotFound);
}

TEST_F(NetServerTest, ErrorsPropagateThroughWire) {
  StartServer();
  auto client = Client();
  EXPECT_EQ(client->Append("/nosuch", AsBytes("x")).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->OpenReader("/nosuch").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client->CreateLogFile("bad-path").status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK(client->CreateLogFile("/exists").status());
  EXPECT_EQ(client->CreateLogFile("/exists").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(client->ReadNext(999).status().code(), StatusCode::kNotFound);
}

TEST_F(NetServerTest, StatOverTcp) {
  StartServer();
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/stat-me", 0600).status());
  ASSERT_OK_AND_ASSIGN(LogFileInfo info, client->Stat("/stat-me"));
  EXPECT_EQ(info.name, "stat-me");
  EXPECT_EQ(info.permissions, 0600u);
  EXPECT_FALSE(info.sealed);
}

// The kStats op round-trips the process-wide metrics registry, counts its
// own request, and reflects a just-run workload (appends, volume writes,
// group-commit batch sizes). Metrics are process-wide and other tests in
// this binary also move them, so every assertion is a delta or a floor,
// never an exact global value.
TEST_F(NetServerTest, StatsRoundTripReflectsWorkload) {
  StartServer();  // default options: batching on
  auto client = Client();

  ASSERT_OK_AND_ASSIGN(StatsSnapshot before, client->GetStats());
  // The stats counter is bumped before the snapshot is taken, so even the
  // first reply already counts the request that produced it.
  EXPECT_GE(before.counter("clio.rpc.requests.stats"), 1u);

  ASSERT_OK(client->CreateLogFile("/metrics-log").status());
  constexpr uint64_t kAppends = 8;
  for (uint64_t i = 0; i < kAppends; ++i) {
    ASSERT_OK(client->Append("/metrics-log", AsBytes("workload-entry"),
                             /*timestamped=*/true, /*force=*/true)
                  .status());
  }

  ASSERT_OK_AND_ASSIGN(StatsSnapshot after, client->GetStats());
  EXPECT_GT(after.counter("clio.rpc.requests.stats"),
            before.counter("clio.rpc.requests.stats"));
  EXPECT_GE(after.counter("clio.rpc.requests.append") -
                before.counter("clio.rpc.requests.append"),
            kAppends);
  EXPECT_GE(after.counter("clio.volume.appends") -
                before.counter("clio.volume.appends"),
            kAppends);
  EXPECT_GT(after.counter("clio.volume.append_bytes"),
            before.counter("clio.volume.append_bytes"));
  EXPECT_GT(after.counter("clio.net.server.frames"),
            before.counter("clio.net.server.frames"));
  EXPECT_GT(after.counter("clio.net.server.bytes_in"),
            before.counter("clio.net.server.bytes_in"));

  // Forced appends went through group commit: the batch-size histogram
  // gained samples and its count equals its bucket total (snapshot
  // consistency over the wire).
  auto batches = after.histogram("clio.net.batch.entries");
  ASSERT_TRUE(batches.has_value());
  uint64_t before_batches =
      before.histogram("clio.net.batch.entries").has_value()
          ? before.histogram("clio.net.batch.entries")->count
          : 0;
  EXPECT_GT(batches->count, before_batches);
  uint64_t bucket_total = 0;
  for (uint64_t b : batches->buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(batches->count, bucket_total);

  // Latency histograms picked up the RPCs and are self-consistent:
  // percentiles are clamped to the observed max.
  auto rpc_us = after.histogram("clio.rpc.request_us");
  ASSERT_TRUE(rpc_us.has_value());
  EXPECT_GT(rpc_us->count, 0u);
  EXPECT_LE(rpc_us->p99(), static_cast<double>(rpc_us->max));
}

// ---------------------------------------------------------------------------
// Robustness: malformed frames, partial reads, error isolation

TEST_F(NetServerTest, GarbageStreamClosesOnlyThatConnection) {
  StartServer();
  auto healthy = Client();
  ASSERT_OK(healthy->CreateLogFile("/ok").status());

  ASSERT_OK_AND_ASSIGN(TcpSocket rogue,
                       TcpSocket::ConnectLoopback(server_->port()));
  Bytes garbage(64);
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::byte>(i * 31 + 5);
  }
  ASSERT_OK(rogue.WriteAll(garbage));
  // The server must drop the rogue connection without replying.
  EXPECT_TRUE(ConnectionDropped(&rogue));
  EXPECT_GE(server_->frames_rejected(), 1u);

  // The healthy session is unaffected.
  ASSERT_OK(healthy->Append("/ok", AsBytes("still alive"), true).status());
}

TEST_F(NetServerTest, OversizedFrameIsRejectedWithoutAllocation) {
  NetLogServerOptions options;
  options.max_frame_body = 4096;
  StartServer(options);
  ASSERT_OK_AND_ASSIGN(TcpSocket rogue,
                       TcpSocket::ConnectLoopback(server_->port()));
  Bytes wire = EncodeFrame(FrameHeader{2, 1, 0}, {});
  StoreU32(wire, 20, 1u << 30);  // claim a 1 GiB body
  ASSERT_OK(rogue.WriteAll(wire));
  EXPECT_TRUE(ConnectionDropped(&rogue));
  EXPECT_GE(server_->frames_rejected(), 1u);

  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/after").status());
}

TEST_F(NetServerTest, TruncatedFrameDropsSessionCleanly) {
  StartServer();
  {
    ASSERT_OK_AND_ASSIGN(TcpSocket rogue,
                         TcpSocket::ConnectLoopback(server_->port()));
    // Header promising a 100-byte body, then only 10 bytes, then close.
    Bytes wire = EncodeFrame(FrameHeader{2, 1, 0}, {});
    StoreU32(wire, 20, 100);
    ASSERT_OK(rogue.WriteAll(wire));
    Bytes partial(10, std::byte{0x42});
    ASSERT_OK(rogue.WriteAll(partial));
  }  // close mid-frame
  // The server survives; a real client still gets service.
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/survivor").status());
  ASSERT_OK(client->Append("/survivor", AsBytes("x"), true, true).status());
}

TEST_F(NetServerTest, GarbageBodyGetsErrorReplyAndSessionSurvives) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(TcpSocket raw,
                       TcpSocket::ConnectLoopback(server_->port()));
  // Well-framed kAppend whose body is not a valid append request.
  Bytes body(5, std::byte{0xFF});
  FrameHeader header;
  header.op = static_cast<uint32_t>(LogOp::kAppend);
  header.request_id = 77;
  ASSERT_OK(raw.WriteAll(EncodeFrame(header, body)));

  ASSERT_OK_AND_ASSIGN(FrameHeader reply_header, ReadReplyHeader(&raw));
  EXPECT_EQ(reply_header.request_id, 77u);
  Bytes reply_body(reply_header.body_size);
  ASSERT_OK_AND_ASSIGN(size_t n, raw.ReadFull(reply_body));
  ASSERT_EQ(n, reply_body.size());
  EXPECT_EQ(DecodeReplyBody(reply_body).status().code(),
            StatusCode::kInvalidArgument);

  // Same connection keeps working after the error reply.
  Bytes create_body;
  ByteWriter w(&create_body);
  w.PutString("/via-raw");
  w.PutU32(0644);
  header.op = static_cast<uint32_t>(LogOp::kCreateLogFile);
  header.request_id = 78;
  ASSERT_OK(raw.WriteAll(EncodeFrame(header, create_body)));
  ASSERT_OK_AND_ASSIGN(reply_header, ReadReplyHeader(&raw));
  reply_body.assign(reply_header.body_size, std::byte{0});
  ASSERT_OK_AND_ASSIGN(n, raw.ReadFull(reply_body));
  ASSERT_OK(DecodeReplyBody(reply_body).status());
}

TEST_F(NetServerTest, UnknownOpGetsErrorReply) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(TcpSocket raw,
                       TcpSocket::ConnectLoopback(server_->port()));
  ASSERT_OK(raw.WriteAll(EncodeFrame(FrameHeader{999, 5, 0}, {})));
  ASSERT_OK_AND_ASSIGN(FrameHeader reply_header, ReadReplyHeader(&raw));
  Bytes reply_body(reply_header.body_size);
  ASSERT_OK_AND_ASSIGN(size_t n, raw.ReadFull(reply_body));
  EXPECT_EQ(n, reply_body.size());
  EXPECT_EQ(DecodeReplyBody(reply_body).status().code(),
            StatusCode::kUnimplemented);
}

TEST_F(NetServerTest, IdleCloseIsRiddenThroughByReconnect) {
  NetLogServerOptions options;
  options.idle_timeout_ms = 80;
  StartServer(options);
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/early").status());
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_GE(server_->sessions_idle_closed(), 1u);
  // The server hung up while we idled; the client reconnects under the
  // covers and the call still succeeds.
  ASSERT_OK(client->CreateLogFile("/late").status());
  EXPECT_GE(client->reconnects(), 1u);
}

TEST_F(NetServerTest, IdleCloseSurfacesWhenRetryDisabled) {
  NetLogServerOptions options;
  options.idle_timeout_ms = 80;
  StartServer(options);
  NetClientOptions copts;
  copts.retry.max_attempts = 1;  // opt out of reconnect/retry
  ASSERT_OK_AND_ASSIGN(auto client,
                       NetLogClient::Connect(server_->port(), copts));
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(client->CreateLogFile("/late").status().code(),
            StatusCode::kUnavailable);
  EXPECT_GE(server_->sessions_idle_closed(), 1u);
}

// ---------------------------------------------------------------------------
// Concurrency: many clients, one service

TEST_F(NetServerTest, EightClientsOnDistinctLogFiles) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kAppends = 40;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client();
      std::string path = "/c" + std::to_string(c);
      if (!client->CreateLogFile(path).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kAppends; ++i) {
        std::string payload = std::to_string(c) + ":" + std::to_string(i);
        if (!client->Append(path, AsBytes(payload), true, true).ok()) {
          ++failures;
          return;
        }
      }
      // Read our own log back through the same connection.
      auto handle = client->OpenReader(path);
      if (!handle.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kAppends; ++i) {
        auto record = client->ReadNext(*handle);
        if (!record.ok() || !record->has_value() ||
            ToString((*record)->payload) !=
                std::to_string(c) + ":" + std::to_string(i)) {
          ++failures;
          return;
        }
      }
      auto end = client->ReadNext(*handle);
      if (!end.ok() || end->has_value()) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server_->sessions_opened(), static_cast<uint64_t>(kClients));
}

TEST_F(NetServerTest, SharedLogFileInterleavedAppendsStayTotallyOrdered) {
  NetLogServerOptions options;
  options.batch.max_hold_us = 2000;
  StartServer(options);
  constexpr int kClients = 8;
  constexpr int kAppends = 30;
  {
    auto setup = Client();
    ASSERT_OK(setup->CreateLogFile("/shared").status());
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client();
      for (int i = 0; i < kAppends; ++i) {
        std::string payload = std::to_string(c) + "-" + std::to_string(i);
        if (!client->Append("/shared", AsBytes(payload), true, true).ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  ASSERT_EQ(failures.load(), 0);

  // Read everything back through the wire: every entry present, every
  // client's subsequence in its send order, timestamps globally
  // non-decreasing (the volume sequence is totally ordered by time).
  auto reader = Client();
  ASSERT_OK_AND_ASSIGN(uint64_t handle, reader->OpenReader("/shared"));
  std::vector<int> next_index(kClients, 0);
  Timestamp last_ts = 0;
  int total = 0;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->ReadNext(handle));
    if (!record.has_value()) {
      break;
    }
    ++total;
    EXPECT_GE(record->timestamp, last_ts);
    last_ts = record->timestamp;
    std::string payload = ToString(record->payload);
    size_t dash = payload.find('-');
    ASSERT_NE(dash, std::string::npos);
    int c = std::stoi(payload.substr(0, dash));
    int i = std::stoi(payload.substr(dash + 1));
    ASSERT_LT(c, kClients);
    EXPECT_EQ(i, next_index[c]) << "client " << c << " out of order";
    next_index[c] = i + 1;
  }
  EXPECT_EQ(total, kClients * kAppends);

  // Group commit actually grouped: fewer batches (forces) than entries.
  ASSERT_NE(server_->batcher(), nullptr);
  EXPECT_EQ(server_->batcher()->entries_committed(),
            static_cast<uint64_t>(kClients * kAppends));
  EXPECT_LT(server_->batcher()->batches_committed(),
            server_->batcher()->entries_committed());

  // The volume itself checks out clean after a drain.
  server_->Stop();
  ASSERT_OK_AND_ASSIGN(VerifyReport report,
                       VerifyVolume(fx_.service->current_volume()));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.time_regressions.size(), 0u);
}

// Batches of one: every forced append pays its own covering force.
TEST_F(NetServerTest, SizeOneBatchesStillCorrect) {
  NetLogServerOptions options;
  options.batch.max_batch_entries = 1;
  StartServer(options);
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  {
    auto setup = Client();
    ASSERT_OK(setup->CreateLogFile("/unbatched").status());
  }
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      auto client = Client();
      for (int i = 0; i < 20; ++i) {
        if (!client->Append("/unbatched", AsBytes("p"), true, true).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server_->batcher()->entries_committed(),
            static_cast<uint64_t>(kClients * 20));
  EXPECT_EQ(server_->batcher()->batches_committed(),
            server_->batcher()->entries_committed());
  server_->Stop();
  ASSERT_OK_AND_ASSIGN(VerifyReport report,
                       VerifyVolume(fx_.service->current_volume()));
  EXPECT_TRUE(report.clean());
}

TEST_F(NetServerTest, GracefulDrainAnswersInFlightRequests) {
  StartServer();
  {
    auto setup = Client();
    ASSERT_OK(setup->CreateLogFile("/drain").status());
  }
  std::atomic<bool> stop_writers{false};
  std::atomic<int> hard_failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      auto client = Client();
      while (!stop_writers.load()) {
        auto result = client->Append("/drain", AsBytes("d"), true, true);
        if (!result.ok()) {
          // During a drain the only acceptable failures are "server went
          // away" shapes, never corruption or a hang.
          if (result.status().code() != StatusCode::kUnavailable) {
            ++hard_failures;
          }
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Stop();  // must not deadlock with in-flight appends
  stop_writers.store(true);
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(hard_failures.load(), 0);
  ASSERT_OK_AND_ASSIGN(VerifyReport report,
                       VerifyVolume(fx_.service->current_volume()));
  EXPECT_TRUE(report.clean());
}

// ---------------------------------------------------------------------------
// Append dedup (unit)

TEST(AppendDedup, ReplaysCompletedStamps) {
  AppendDedupIndex index;
  EXPECT_FALSE(index.Begin(1, 1).has_value());  // claimed
  AppendResult result;
  result.timestamp = 1234;
  index.CompleteSuccess(1, 1, result);
  auto replay = index.Begin(1, 1);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->result.timestamp, 1234);
  EXPECT_TRUE(replay->durable);
  EXPECT_EQ(index.replays(), 1u);
  EXPECT_EQ(index.claims(), 1u);
  // A different stamp (same client, next seq) is a fresh claim.
  EXPECT_FALSE(index.Begin(1, 2).has_value());
  // A different client reusing the same seq is independent too.
  EXPECT_FALSE(index.Begin(2, 1).has_value());
}

TEST(AppendDedup, FailureReleasesTheStamp) {
  AppendDedupIndex index;
  EXPECT_FALSE(index.Begin(7, 1).has_value());
  index.CompleteFailure(7, 1);
  // The retry executes afresh instead of replaying a failure.
  EXPECT_FALSE(index.Begin(7, 1).has_value());
  EXPECT_EQ(index.claims(), 2u);
  EXPECT_EQ(index.replays(), 0u);
}

TEST(AppendDedup, StagedEntriesReplayAsNotDurable) {
  AppendDedupIndex index;
  ASSERT_FALSE(index.Begin(5, 1).has_value());
  AppendResult result;
  result.timestamp = 77;
  index.CompleteStaged(5, 1, result);
  // Staged but not durable: the server must re-force before re-acking.
  auto replay = index.Begin(5, 1);
  ASSERT_TRUE(replay.has_value());
  EXPECT_EQ(replay->result.timestamp, 77);
  EXPECT_FALSE(replay->durable);
  index.MarkDurable(5, 1);
  replay = index.Begin(5, 1);
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(replay->durable);
}

TEST(AppendDedup, DropNonDurableForgetsStagedAndInFlight) {
  AppendDedupIndex index;
  AppendResult result;
  result.timestamp = 1;
  ASSERT_FALSE(index.Begin(9, 1).has_value());
  index.CompleteSuccess(9, 1, result);  // durable: survives the restart
  ASSERT_FALSE(index.Begin(9, 2).has_value());
  index.CompleteStaged(9, 2, result);  // staged: died in the crashed buffer
  ASSERT_FALSE(index.Begin(9, 3).has_value());  // in flight: session is gone
  index.DropNonDurable();
  EXPECT_TRUE(index.Begin(9, 1).has_value());   // still replays
  EXPECT_FALSE(index.Begin(9, 2).has_value());  // retry re-executes
  EXPECT_FALSE(index.Begin(9, 3).has_value());  // retry re-executes
}

TEST(AppendDedup, WindowPrunesOldestCompletions) {
  AppendDedupOptions options;
  options.window_per_client = 4;
  AppendDedupIndex index(options);
  AppendResult result;
  for (uint64_t seq = 1; seq <= 10; ++seq) {
    EXPECT_FALSE(index.Begin(1, seq).has_value());
    result.timestamp = static_cast<Timestamp>(seq);
    index.CompleteSuccess(1, seq, result);
  }
  // Seqs 7..10 are inside the window; 1..6 fell out, so a (stale) retry
  // of seq 1 re-executes instead of replaying.
  ASSERT_TRUE(index.Begin(1, 10).has_value());
  EXPECT_FALSE(index.Begin(1, 1).has_value());
}

TEST(AppendDedup, AgeEvictsDurableStampsOnly) {
  AppendDedupOptions options;
  options.max_stamp_age_us = 1000;
  AppendDedupIndex index(options);
  AppendResult result;
  result.timestamp = 42;
  ASSERT_FALSE(index.Begin(1, 1).has_value());
  index.CompleteSuccess(1, 1, result);  // durable: age-evictable
  ASSERT_FALSE(index.Begin(1, 2).has_value());
  index.CompleteStaged(1, 2, result);  // staged: never age-evicted

  // Within the window both stamps replay.
  ASSERT_TRUE(index.Begin(1, 1).has_value());
  ASSERT_TRUE(index.Begin(1, 2).has_value());

  // Past the window, the durable stamp is gone — its retry re-executes —
  // but the staged one (undelivered durability, retry still live) remains.
  index.PruneExpired(AppendDedupIndex::NowUs() + options.max_stamp_age_us +
                     1);
  EXPECT_FALSE(index.Begin(1, 1).has_value());
  auto staged = index.Begin(1, 2);
  ASSERT_TRUE(staged.has_value());
  EXPECT_FALSE(staged->durable);
}

TEST(AppendDedup, AgeZeroDisablesExpiry) {
  AppendDedupIndex index;  // default: max_stamp_age_us = 0
  AppendResult result;
  result.timestamp = 7;
  ASSERT_FALSE(index.Begin(1, 1).has_value());
  index.CompleteSuccess(1, 1, result);
  index.PruneExpired(AppendDedupIndex::NowUs() + 3'600'000'000ull);
  EXPECT_TRUE(index.Begin(1, 1).has_value());
}

TEST(AppendDedup, ConcurrentDuplicateWaitsForTheOriginal) {
  AppendDedupIndex index;
  ASSERT_FALSE(index.Begin(3, 9).has_value());  // original in flight
  std::atomic<bool> replayed{false};
  std::thread dup([&] {
    auto replay = index.Begin(3, 9);  // blocks until the original lands
    replayed.store(replay.has_value() && replay->result.timestamp == 55);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  AppendResult result;
  result.timestamp = 55;
  index.CompleteSuccess(3, 9, result);
  dup.join();
  EXPECT_TRUE(replayed.load());
}

// ---------------------------------------------------------------------------
// Idempotent retry over the wire

// One raw framed round trip (no client retry machinery in the way).
Result<Bytes> RawCall(TcpSocket* socket, const Bytes& frame) {
  CLIO_RETURN_IF_ERROR(socket->WriteAll(frame));
  CLIO_ASSIGN_OR_RETURN(FrameHeader header, ReadReplyHeader(socket));
  Bytes body(header.body_size);
  if (header.body_size > 0) {
    CLIO_ASSIGN_OR_RETURN(size_t n, socket->ReadFull(body));
    if (n != header.body_size) {
      return Unavailable("server closed mid-reply");
    }
  }
  return DecodeReplyBody(body);
}

TEST_F(NetServerTest, RetransmittedAppendIsAckedOnceLogged) {
  StartServer();
  {
    auto setup = Client();
    ASSERT_OK(setup->CreateLogFile("/dedup").status());
  }
  // A stamped append, transmitted twice on the same connection — exactly
  // what a client does when the first reply is lost in transit.
  Bytes body = EncodeAppendRequest("/dedup", AsBytes("exactly-once"),
                                   /*timestamped=*/true, /*force=*/true,
                                   /*client_id=*/42, /*request_seq=*/7);
  FrameHeader header;
  header.op = static_cast<uint32_t>(LogOp::kAppend);
  header.request_id = 100;
  Bytes frame = EncodeFrame(header, body);

  ASSERT_OK_AND_ASSIGN(TcpSocket raw,
                       TcpSocket::ConnectLoopback(server_->port()));
  ASSERT_OK_AND_ASSIGN(Bytes first, RawCall(&raw, frame));
  ASSERT_OK_AND_ASSIGN(Bytes second, RawCall(&raw, frame));
  ByteReader r1(first);
  ByteReader r2(second);
  EXPECT_EQ(r1.GetI64(), r2.GetI64());  // same ack, same timestamp
  EXPECT_EQ(server_->dedup()->replays(), 1u);

  // The log holds the entry exactly once.
  auto reader = Client();
  ASSERT_OK_AND_ASSIGN(uint64_t handle, reader->OpenReader("/dedup"));
  int count = 0;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->ReadNext(handle));
    if (!record.has_value()) {
      break;
    }
    EXPECT_EQ(ToString(record->payload), "exactly-once");
    ++count;
  }
  EXPECT_EQ(count, 1);
}

// ---------------------------------------------------------------------------
// Request tracing over the wire

TEST_F(NetServerTest, LegacyV1FrameIsServedWithoutTracing) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(TcpSocket raw,
                       TcpSocket::ConnectLoopback(server_->port()));
  // Hand-build the frame an old (v1) client would send: the 24-byte
  // prefix, no trace extension, body immediately after.
  Bytes create_body;
  ByteWriter w(&create_body);
  w.PutString("/v1-peer");
  w.PutU32(0644);
  FrameHeader header;
  header.op = static_cast<uint32_t>(LogOp::kCreateLogFile);
  header.request_id = 11;
  header.trace_id = 999;  // must NOT survive the downgrade
  Bytes v2 = EncodeFrame(header, create_body);
  Bytes v1(v2.begin(), v2.begin() + kFrameHeaderSize);
  StoreU16(v1, 4, kFrameVersionLegacy);
  v1.insert(v1.end(), v2.begin() + kFrameHeaderSizeV2, v2.end());

  ASSERT_OK(raw.WriteAll(v1));
  // Parse the reply the way a real pre-tracing client does: read exactly
  // 24 header bytes, insist the version IS 1 (a v1 decoder rejects
  // anything else as "unsupported frame version"), and treat every byte
  // after those 24 as body — no version-aware extension read.
  Bytes reply_prefix(kFrameHeaderSize);
  ASSERT_OK_AND_ASSIGN(size_t n, raw.ReadFull(reply_prefix));
  ASSERT_EQ(n, kFrameHeaderSize);
  EXPECT_EQ(LoadU32(reply_prefix, 0), kFrameMagic);
  ASSERT_EQ(LoadU16(reply_prefix, 4), kFrameVersionLegacy);
  EXPECT_EQ(LoadU16(reply_prefix, 6), 0u);  // flags
  EXPECT_EQ(LoadU64(reply_prefix, 12), 11u);  // request id echoed
  Bytes reply_body(LoadU32(reply_prefix, 20));
  ASSERT_OK_AND_ASSIGN(n, raw.ReadFull(reply_body));
  ASSERT_EQ(n, reply_body.size());
  ASSERT_OK(DecodeReplyBody(reply_body).status());
}

TEST_F(NetServerTest, V1AndV2PeersInterleaveOnTheSameServer) {
  StartServer();
  {
    auto setup = Client();
    ASSERT_OK(setup->CreateLogFile("/mixed").status());
  }
  // A v1 peer appends (strict v1 framing both ways)...
  Bytes body = EncodeAppendRequest("/mixed", AsBytes("from v1"),
                                   /*timestamped=*/false, /*force=*/true,
                                   /*client_id=*/0, /*request_seq=*/0);
  FrameHeader header;
  header.op = static_cast<uint32_t>(LogOp::kAppend);
  header.request_id = 31;
  header.version = kFrameVersionLegacy;
  ASSERT_OK_AND_ASSIGN(TcpSocket raw,
                       TcpSocket::ConnectLoopback(server_->port()));
  ASSERT_OK(raw.WriteAll(EncodeFrame(header, body)));
  Bytes reply_prefix(kFrameHeaderSize);
  ASSERT_OK_AND_ASSIGN(size_t n, raw.ReadFull(reply_prefix));
  ASSERT_EQ(n, kFrameHeaderSize);
  ASSERT_EQ(LoadU16(reply_prefix, 4), kFrameVersionLegacy);
  Bytes reply_body(LoadU32(reply_prefix, 20));
  ASSERT_OK_AND_ASSIGN(n, raw.ReadFull(reply_body));
  ASSERT_EQ(n, reply_body.size());
  ASSERT_OK(DecodeReplyBody(reply_body).status());

  // ...and a v2 client on the same server still gets traced v2 replies.
  auto client = Client();
  ASSERT_OK(client->Append("/mixed", AsBytes("from v2"),
                           /*timestamped=*/false, /*force=*/true)
                .status());
  EXPECT_NE(client->last_trace_id(), 0u);
}

TEST_F(NetServerTest, TraceDumpReconstructsARequestTimeline) {
  StartServer();  // batching on: the append crosses the commit thread
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/traced").status());
  ASSERT_OK(client->Append("/traced", AsBytes("follow me"),
                           /*timestamped=*/true, /*force=*/true)
                .status());
  const uint64_t trace_id = client->last_trace_id();
  ASSERT_NE(trace_id, 0u);

  ASSERT_OK_AND_ASSIGN(TraceDump dump, client->DumpTraces());
  auto summaries = SummarizeTraces(dump.spans);
  const TraceSummary* mine = nullptr;
  for (const TraceSummary& s : summaries) {
    if (s.trace_id == trace_id) {
      mine = &s;
    }
  }
  ASSERT_NE(mine, nullptr) << "append's trace missing from the dump";
  // The batched forced append passes through every server-side stage:
  // session read, dispatch, the batcher wait, the commit thread's staging
  // append (with the volume append nested under it), and the covering
  // force — plus the reply write.
  for (TraceStage stage :
       {TraceStage::kSessionRead, TraceStage::kDispatch,
        TraceStage::kBatchWait, TraceStage::kBatchAppend,
        TraceStage::kVolumeAppend, TraceStage::kForce,
        TraceStage::kReplyWrite}) {
    EXPECT_TRUE(mine->stage_us.contains(stage))
        << "missing stage " << TraceStageName(stage);
  }
  // Sanity on nesting: the dispatch span covers the batch wait.
  EXPECT_GE(mine->stage_us.at(TraceStage::kDispatch),
            mine->stage_us.at(TraceStage::kBatchWait));
}

TEST(NetTrace, InjectedSlowBurnIsVisibleInTheTraceDump) {
  MemoryWormOptions dev_options;
  dev_options.block_size = 1024;
  dev_options.capacity_blocks = 4096;
  FaultPolicy policy;
  policy.append_latency_us = 20'000;  // every burn takes >= 20 ms
  auto injector = std::make_unique<FaultInjectingWormDevice>(
      std::make_unique<MemoryWormDevice>(dev_options), policy, /*seed=*/5);
  SimulatedClock clock(1'000'000, /*auto_tick=*/7);
  LogServiceOptions sopts;
  sopts.sequence_id = 0x7ACE;
  ASSERT_OK_AND_ASSIGN(auto service,
                       LogService::Create(std::move(injector), &clock, sopts));
  ASSERT_OK_AND_ASSIGN(auto server, NetLogServer::Start(service.get()));
  ASSERT_OK_AND_ASSIGN(auto client, NetLogClient::Connect(server->port()));
  ASSERT_OK(client->CreateLogFile("/slow").status());
  ASSERT_OK(
      client->Append("/slow", AsBytes("sluggish"), true, true).status());
  const uint64_t trace_id = client->last_trace_id();

  // The slow-request filter: at 10ms the injected 20ms burn qualifies.
  ASSERT_OK_AND_ASSIGN(TraceDump dump,
                       client->DumpTraces(/*min_total_us=*/10'000));
  auto summaries = SummarizeTraces(dump.spans);
  const TraceSummary* slow = nullptr;
  for (const TraceSummary& s : summaries) {
    if (s.trace_id == trace_id) {
      slow = &s;
    }
  }
  ASSERT_NE(slow, nullptr) << "slow append filtered out of the dump";
  EXPECT_GE(slow->total_us, 10'000u);
  // The breakdown points at the batch's covering force, which carries the
  // injected burn latency. The burn itself runs on the commit thread under
  // no request's context (one force covers every member), so it is
  // recorded per member as this force span, not as a burn span.
  ASSERT_TRUE(slow->stage_us.contains(TraceStage::kForce));
  EXPECT_GE(slow->stage_us.at(TraceStage::kForce), 15'000u);

  // The export round-trips into Chrome trace_event JSON with one event
  // per span.
  std::string json = TraceDumpToChromeJson(dump);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"force\""), std::string::npos);
  server->Stop();
}

TEST(NetTrace, RetriedAppendKeepsItsOriginalTraceId) {
  MemoryWormOptions dev_options;
  dev_options.block_size = 1024;
  dev_options.capacity_blocks = 4096;
  FaultPolicy policy;
  policy.power_cut_after_appends = 4;  // the device dies mid-workload
  auto injector = std::make_unique<FaultInjectingWormDevice>(
      std::make_unique<MemoryWormDevice>(dev_options), policy, /*seed=*/42);
  FaultInjectingWormDevice* injector_raw = injector.get();
  SimulatedClock clock(1'000'000, /*auto_tick=*/7);
  LogServiceOptions sopts;
  sopts.sequence_id = 0x7AC3;
  ASSERT_OK_AND_ASSIGN(auto service,
                       LogService::Create(std::move(injector), &clock, sopts));
  ASSERT_OK_AND_ASSIGN(auto server, NetLogServer::Start(service.get()));
  std::atomic<bool> stop_reviver{false};
  std::thread reviver([&] {
    while (!stop_reviver.load()) {
      if (injector_raw->powered_off()) {
        injector_raw->Revive();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  ASSERT_OK_AND_ASSIGN(auto client, NetLogClient::Connect(server->port()));
  ASSERT_OK(client->CreateLogFile("/retry-trace").status());
  // Append until one call had to retry, and capture THAT call's trace id.
  uint64_t retried_trace_id = 0;
  for (int i = 0; i < 50 && retried_trace_id == 0; ++i) {
    uint64_t retries_before = client->retries();
    ASSERT_OK(client
                  ->Append("/retry-trace", AsBytes("r" + std::to_string(i)),
                           true, true)
                  .status());
    if (client->retries() > retries_before) {
      retried_trace_id = client->last_trace_id();
    }
  }
  stop_reviver.store(true);
  reviver.join();
  ASSERT_NE(retried_trace_id, 0u) << "no append ever retried";

  // Every attempt of the retried call was dispatched under the SAME trace
  // id (the frame — trace id included — is encoded once and retransmitted
  // verbatim), so its trace shows at least two dispatch spans: the failed
  // original and the replayed retry.
  ASSERT_OK_AND_ASSIGN(TraceDump dump, client->DumpTraces());
  size_t dispatches = 0;
  for (const TraceSpan& span : dump.spans) {
    if (span.trace_id == retried_trace_id &&
        span.stage == TraceStage::kDispatch) {
      ++dispatches;
    }
  }
  EXPECT_GE(dispatches, 2u);
  server->Stop();
}

// ---------------------------------------------------------------------------
// Transient storage faults surface as retryable errors, not dead sessions

TEST(NetFault, TransientDeviceFaultIsRiddenThroughByRetry) {
  MemoryWormOptions dev_options;
  dev_options.block_size = 1024;
  dev_options.capacity_blocks = 4096;
  FaultPolicy policy;
  policy.power_cut_after_appends = 12;  // cut power every 12 device burns
  auto injector = std::make_unique<FaultInjectingWormDevice>(
      std::make_unique<MemoryWormDevice>(dev_options), policy, /*seed=*/99);
  FaultInjectingWormDevice* injector_raw = injector.get();
  SimulatedClock clock(1'000'000, /*auto_tick=*/7);
  LogServiceOptions sopts;
  sopts.sequence_id = 0xFA171;
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Create(std::move(injector), &clock, sopts));
  ASSERT_OK_AND_ASSIGN(auto server, NetLogServer::Start(service.get()));

  // A little supervisor: power the device back on whenever it dies.
  std::atomic<bool> stop_reviver{false};
  std::thread reviver([&] {
    while (!stop_reviver.load()) {
      if (injector_raw->powered_off()) {
        injector_raw->Revive();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  ASSERT_OK_AND_ASSIGN(auto client, NetLogClient::Connect(server->port()));
  ASSERT_OK(client->CreateLogFile("/flaky").status());
  constexpr int kAppends = 30;
  for (int i = 0; i < kAppends; ++i) {
    std::string payload = "p" + std::to_string(i);
    ASSERT_OK(
        client->Append("/flaky", AsBytes(payload), true, true).status());
  }
  stop_reviver.store(true);
  reviver.join();

  // The cuts really happened, the client really retried — and never had
  // to reconnect, because kUnavailable rode the wire as an error reply
  // instead of killing the session.
  EXPECT_GE(injector_raw->power_cuts(), 1u);
  EXPECT_GE(client->retries(), 1u);
  EXPECT_EQ(client->reconnects(), 0u);

  // Every acknowledged append is present exactly once, in order.
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/flaky"));
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_OK_AND_ASSIGN(auto record, client->ReadNext(handle));
    ASSERT_TRUE(record.has_value()) << "entry " << i << " missing";
    EXPECT_EQ(ToString(record->payload), "p" + std::to_string(i));
  }
  ASSERT_OK_AND_ASSIGN(auto end, client->ReadNext(handle));
  EXPECT_FALSE(end.has_value());
  server->Stop();
}

// ---------------------------------------------------------------------------
// Server restart: clients and readers ride through

class NetRestartTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MemoryWormOptions dev_options;
    dev_options.block_size = 1024;
    dev_options.capacity_blocks = 4096;
    media_ = std::make_unique<MemoryWormDevice>(dev_options);
    auto service = LogService::Create(
        std::make_unique<BorrowedDevice>(media_.get()), &clock_,
        ServiceOptions());
    ASSERT_OK(service.status());
    service_ = std::move(service).value();
    StartServer(0);
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
  }

  LogServiceOptions ServiceOptions() {
    LogServiceOptions options;
    options.sequence_id = 0xFEED;
    return options;
  }

  void StartServer(uint16_t port) {
    NetLogServerOptions options;
    options.port = port;
    // Supervisor-owned dedup index: it outlives individual server
    // incarnations, so acks lost to a restart still deduplicate.
    options.dedup = {&dedup_};
    options.batch.max_hold_us = 500;
    auto server = NetLogServer::Start(service_.get(), options);
    ASSERT_OK(server.status());
    server_ = std::move(server).value();
    port_ = server_->port();
  }

  // Stop the server, drop the service ("crash" — only the media and the
  // supervisor state survive), re-run recovery, resume on the same port.
  void RestartServer() {
    server_->Stop();
    server_.reset();
    service_.reset();
    std::vector<std::unique_ptr<WormDevice>> devices;
    devices.push_back(
        std::make_unique<BorrowedDevice>(media_.get()));
    RecoveryReport report;
    auto service = LogService::Recover(std::move(devices), &clock_,
                                       ServiceOptions(), &report);
    ASSERT_OK(service.status());
    service_ = std::move(service).value();
    StartServer(port_);
  }

  SimulatedClock clock_{1'000'000, /*auto_tick=*/7};
  AppendDedupIndex dedup_;
  std::unique_ptr<MemoryWormDevice> media_;
  std::unique_ptr<LogService> service_;
  std::unique_ptr<NetLogServer> server_;
  uint16_t port_ = 0;
};

TEST_F(NetRestartTest, ClientRidesThroughServerRestart) {
  ASSERT_OK_AND_ASSIGN(auto client, NetLogClient::Connect(port_));
  ASSERT_OK(client->CreateLogFile("/ride").status());
  ASSERT_OK(client->Append("/ride", AsBytes("before"), true, true).status());

  RestartServer();

  // The same client object keeps working: the dead connection is noticed,
  // re-established, and the call retried.
  ASSERT_OK(client->Append("/ride", AsBytes("after"), true, true).status());
  EXPECT_GE(client->reconnects(), 1u);

  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/ride"));
  ASSERT_OK_AND_ASSIGN(auto a, client->ReadNext(handle));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(ToString(a->payload), "before");
  ASSERT_OK_AND_ASSIGN(auto b, client->ReadNext(handle));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(ToString(b->payload), "after");
}

TEST_F(NetRestartTest, ReaderCursorSurvivesServerRestart) {
  ASSERT_OK_AND_ASSIGN(auto client, NetLogClient::Connect(port_));
  ASSERT_OK(client->CreateLogFile("/cursor").status());
  for (int i = 0; i < 5; ++i) {
    std::string payload = "e" + std::to_string(i);
    ASSERT_OK(
        client->Append("/cursor", AsBytes(payload), true, true).status());
  }
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/cursor"));
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(auto record, client->ReadNext(handle));
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(ToString(record->payload), "e" + std::to_string(i));
  }

  RestartServer();

  // The server-side reader died with its session; the virtual handle
  // re-opens it and replays the cursor to entry 2.
  for (int i = 2; i < 5; ++i) {
    ASSERT_OK_AND_ASSIGN(auto record, client->ReadNext(handle));
    ASSERT_TRUE(record.has_value()) << "entry " << i;
    EXPECT_EQ(ToString(record->payload), "e" + std::to_string(i));
  }
  ASSERT_OK_AND_ASSIGN(auto end, client->ReadNext(handle));
  EXPECT_FALSE(end.has_value());
  EXPECT_GE(client->reconnects(), 1u);
  ASSERT_OK(client->CloseReader(handle));
}

TEST_F(NetRestartTest, SeekAnchoredReaderReplaysFromItsAnchor) {
  ASSERT_OK_AND_ASSIGN(auto client, NetLogClient::Connect(port_));
  ASSERT_OK(client->CreateLogFile("/anchored").status());
  for (int i = 0; i < 6; ++i) {
    std::string payload = "a" + std::to_string(i);
    ASSERT_OK(
        client->Append("/anchored", AsBytes(payload), true, true).status());
  }
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/anchored"));
  ASSERT_OK(client->SeekToEnd(handle));
  ASSERT_OK_AND_ASSIGN(auto last, client->ReadPrev(handle));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(ToString(last->payload), "a5");

  RestartServer();

  // Anchor = end, offset = -1: the replay lands just before a5, so the
  // next Prev yields a4.
  ASSERT_OK_AND_ASSIGN(auto prev, client->ReadPrev(handle));
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(ToString(prev->payload), "a4");
}

// ---------------------------------------------------------------------------
// Socket I/O deadlines

TEST(SocketDeadline, StalledRecvSurfacesAsUnavailable) {
  ASSERT_OK_AND_ASSIGN(TcpSocket listener, TcpSocket::ListenLoopback(0));
  ASSERT_OK_AND_ASSIGN(uint16_t port, listener.local_port());
  ASSERT_OK_AND_ASSIGN(TcpSocket client, TcpSocket::ConnectLoopback(port));
  ASSERT_OK(client.SetIoTimeout(100));
  // Nobody ever sends: the read must time out, not hang.
  Bytes buf(8);
  auto n = client.ReadFull(buf);
  EXPECT_EQ(n.status().code(), StatusCode::kUnavailable);
}

TEST(SocketDeadline, HungServerCannotWedgeAClientCall) {
  // A "server" that completes the TCP handshake (via the accept backlog)
  // but never reads or replies.
  ASSERT_OK_AND_ASSIGN(TcpSocket listener, TcpSocket::ListenLoopback(0));
  ASSERT_OK_AND_ASSIGN(uint16_t port, listener.local_port());
  NetClientOptions copts;
  copts.io_timeout_ms = 100;
  copts.retry.max_attempts = 2;
  copts.retry.initial_backoff_ms = 1;
  copts.retry.max_backoff_ms = 2;
  ASSERT_OK_AND_ASSIGN(auto client, NetLogClient::Connect(port, copts));
  auto begin = std::chrono::steady_clock::now();
  EXPECT_EQ(client->CreateLogFile("/never").status().code(),
            StatusCode::kUnavailable);
  auto elapsed = std::chrono::steady_clock::now() - begin;
  // Two attempts at ~100ms each plus slack — nowhere near a hang.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

}  // namespace
}  // namespace clio
