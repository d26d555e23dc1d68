// IPC channel and log-server protocol tests.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "src/ipc/channel.h"
#include "src/ipc/log_server.h"
#include "src/obs/metrics.h"
#include "src/partition/partitioned_service.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::ServiceFixture;

TEST(IpcChannel, RoundTrip) {
  IpcChannel channel;
  std::thread server([&] {
    IpcMessage request;
    while (channel.WaitForRequest(&request)) {
      IpcMessage reply;
      reply.op = request.op + 1;
      reply.body = request.body;
      channel.Reply(std::move(reply));
    }
  });
  IpcMessage request;
  request.op = 41;
  request.body = ToBytes("ping");
  ASSERT_OK_AND_ASSIGN(IpcMessage reply, channel.Call(request));
  EXPECT_EQ(reply.op, 42u);
  EXPECT_EQ(ToString(reply.body), "ping");
  channel.Shutdown();
  server.join();
}

TEST(IpcChannel, ConcurrentClientsSerialize) {
  IpcChannel channel;
  std::atomic<int> served{0};
  std::thread server([&] {
    IpcMessage request;
    while (channel.WaitForRequest(&request)) {
      ++served;
      channel.Reply(IpcMessage{request.op, {}});
    }
  });
  std::vector<std::thread> clients;
  std::atomic<int> completed{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < 50; ++i) {
        auto reply = channel.Call(IpcMessage{static_cast<uint32_t>(c), {}});
        if (reply.ok()) {
          ++completed;
        }
      }
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(completed.load(), 200);
  EXPECT_EQ(served.load(), 200);
  channel.Shutdown();
  server.join();
}

TEST(IpcChannel, ShutdownUnblocksClients) {
  IpcChannel channel;
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    channel.Shutdown();
  });
  auto result = channel.Call(IpcMessage{1, {}});
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  late.join();
}

// Shutdown() racing with in-flight Call()s: every call must either
// complete or fail kUnavailable, nothing may hang, and (under TSan) no
// access may race. The latency sleep widens the window in which a call is
// mid-flight outside the channel lock.
TEST(IpcChannel, ShutdownRacesWithInFlightCalls) {
  for (int round = 0; round < 25; ++round) {
    IpcChannel channel(/*simulated_latency_us=*/50);
    std::thread server([&] {
      IpcMessage request;
      while (channel.WaitForRequest(&request)) {
        channel.Reply(IpcMessage{request.op, {}});
      }
    });
    std::atomic<int> outcomes{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&] {
        for (int i = 0; i < 10; ++i) {
          auto reply = channel.Call(IpcMessage{7, {}});
          if (!reply.ok()) {
            EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
          }
          ++outcomes;
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    channel.Shutdown();
    for (auto& t : clients) {
      t.join();
    }
    server.join();
    EXPECT_EQ(outcomes.load(), 30);
    EXPECT_LE(channel.calls(), 30u);
  }
}

TEST(IpcChannel, SimulatedLatencyIsCharged) {
  IpcChannel channel(/*simulated_latency_us=*/2000);  // 2 ms each way
  std::thread server([&] {
    IpcMessage request;
    while (channel.WaitForRequest(&request)) {
      channel.Reply(IpcMessage{});
    }
  });
  auto start = std::chrono::steady_clock::now();
  ASSERT_OK(channel.Call(IpcMessage{1, {}}).status());
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 4000);
  channel.Shutdown();
  server.join();
}

class LogServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fx_ = ServiceFixture::Make();
    server_ = std::make_unique<LogServer>(fx_.service.get(), &channel_);
    server_->Start();
  }
  void TearDown() override { server_->Stop(); }

  ServiceFixture fx_;
  IpcChannel channel_;
  std::unique_ptr<LogServer> server_;
};

TEST_F(LogServerTest, CreateAppendReadOverIpc) {
  LogClient client(&channel_);
  ASSERT_OK(client.CreateLogFile("/remote").status());
  ASSERT_OK_AND_ASSIGN(Timestamp first,
                       client.Append("/remote", AsBytes("one"), true));
  ASSERT_OK_AND_ASSIGN(Timestamp second,
                       client.Append("/remote", AsBytes("two"), true));
  EXPECT_GT(second, first);

  ASSERT_OK_AND_ASSIGN(uint64_t handle, client.OpenReader("/remote"));
  ASSERT_OK(client.SeekToStart(handle));
  ASSERT_OK_AND_ASSIGN(auto a, client.ReadNext(handle));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(ToString(a->payload), "one");
  EXPECT_EQ(a->timestamp, first);
  EXPECT_TRUE(a->timestamp_exact);
  ASSERT_OK_AND_ASSIGN(auto b, client.ReadNext(handle));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(ToString(b->payload), "two");
  ASSERT_OK_AND_ASSIGN(auto end, client.ReadNext(handle));
  EXPECT_FALSE(end.has_value());

  // Backwards too.
  ASSERT_OK(client.SeekToEnd(handle));
  ASSERT_OK_AND_ASSIGN(auto last, client.ReadPrev(handle));
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(ToString(last->payload), "two");
  ASSERT_OK(client.CloseReader(handle));
}

TEST_F(LogServerTest, BatchReadOverIpc) {
  LogClient client(&channel_);
  ASSERT_OK(client.CreateLogFile("/batched").status());
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(
        client.Append("/batched", AsBytes("e" + std::to_string(i)), true)
            .status());
  }
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client.OpenReader("/batched"));
  ASSERT_OK_AND_ASSIGN(EntryBatch first, client.ReadNextBatch(handle, 4));
  ASSERT_EQ(first.entries.size(), 4u);
  EXPECT_FALSE(first.at_end);
  EXPECT_EQ(ToString(first.entries[0].payload), "e0");
  EXPECT_EQ(ToString(first.entries[3].payload), "e3");

  // Same transport-independent iterator as the TCP client.
  BatchedReader reader(&client, handle, /*batch_size=*/4);
  for (int i = 4; i < 10; ++i) {
    ASSERT_OK_AND_ASSIGN(auto entry, reader.Next());
    ASSERT_TRUE(entry.has_value()) << "entry " << i;
    EXPECT_EQ(ToString(entry->payload), "e" + std::to_string(i));
  }
  ASSERT_OK_AND_ASSIGN(auto end, reader.Next());
  EXPECT_FALSE(end.has_value());
  ASSERT_OK(client.CloseReader(handle));
}

TEST_F(LogServerTest, SeekToTimeOverIpc) {
  LogClient client(&channel_);
  ASSERT_OK(client.CreateLogFile("/t").status());
  std::vector<Timestamp> stamps;
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(
        Timestamp ts,
        client.Append("/t", AsBytes("e" + std::to_string(i)), true));
    stamps.push_back(ts);
  }
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client.OpenReader("/t"));
  ASSERT_OK(client.SeekToTime(handle, stamps[10]));
  ASSERT_OK_AND_ASSIGN(auto at, client.ReadPrev(handle));
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(ToString(at->payload), "e10");
}

TEST_F(LogServerTest, ErrorsPropagateThroughWire) {
  LogClient client(&channel_);
  EXPECT_EQ(client.Append("/nosuch", AsBytes("x")).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.OpenReader("/nosuch").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.CreateLogFile("bad-path").status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_OK(client.CreateLogFile("/exists").status());
  EXPECT_EQ(client.CreateLogFile("/exists").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(LogServerTest, StatOverIpc) {
  LogClient client(&channel_);
  ASSERT_OK(client.CreateLogFile("/stat-me", 0600).status());
  ASSERT_OK_AND_ASSIGN(LogFileInfo info, client.Stat("/stat-me"));
  EXPECT_EQ(info.name, "stat-me");
  EXPECT_EQ(info.permissions, 0600u);
  EXPECT_FALSE(info.sealed);
}

TEST_F(LogServerTest, ForcedWriteViaIpcIsDurable) {
  LogClient client(&channel_);
  ASSERT_OK(client.CreateLogFile("/commit").status());
  ASSERT_OK(client.Append("/commit", AsBytes("record"), true, true).status());
  EXPECT_GE(fx_.service->current_volume()->end_block(), 2u);
}

// Dispatch and DispatchScatter share one accounting scope: the same
// kReadBatch through either entry point leaves identical deltas in the
// request counter, the all-ops histogram and the read-class histogram.
TEST(ServiceDispatcherTest, FlatAndScatterReadBatchAccountAlike) {
  ServiceFixture fx = ServiceFixture::Make();
  ASSERT_OK_AND_ASSIGN(auto view,
                       PartitionedLogService::Wrap(fx.service.get()));
  ASSERT_OK(view->CreateLogFile("/acct").status());
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(view->Append("/acct", AsBytes("e" + std::to_string(i))).status());
  }
  ServiceDispatcher dispatcher(view.get());
  dispatcher.set_zero_copy(true);
  auto open_reader = [&]() -> uint64_t {
    Bytes body;
    ByteWriter(&body).PutString("/acct");
    auto reply = DecodeReplyBody(dispatcher.Dispatch(LogOp::kOpenReader, body));
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    return reply.ok() ? ByteReader(*reply).GetU64() : 0;
  };
  auto batch_body = [](uint64_t handle) {
    Bytes body;
    ByteWriter w(&body);
    w.PutU64(handle);
    w.PutU32(4);
    return body;
  };
  auto deltas = [](const auto& dispatch) {
    const StatsSnapshot before = ObsRegistry().Snapshot();
    dispatch();
    const StatsSnapshot after = ObsRegistry().Snapshot();
    auto count = [](const StatsSnapshot& s, const char* name) {
      auto h = s.histogram(name);
      return h.has_value() ? h->count : 0;
    };
    return std::array<uint64_t, 3>{
        after.counter("clio.rpc.requests.read_batch") -
            before.counter("clio.rpc.requests.read_batch"),
        count(after, "clio.rpc.request_us") -
            count(before, "clio.rpc.request_us"),
        count(after, "clio.rpc.read_us") - count(before, "clio.rpc.read_us")};
  };

  const Bytes flat_body = batch_body(open_reader());
  const Bytes scatter_body = batch_body(open_reader());
  const auto flat = deltas([&] {
    EXPECT_OK(DecodeReplyBody(dispatcher.Dispatch(LogOp::kReadBatch,
                                                  flat_body))
                  .status());
  });
  const auto scatter = deltas([&] {
    WireMessage reply =
        dispatcher.DispatchScatter(LogOp::kReadBatch, scatter_body);
    EXPECT_GT(reply.borrowed_bytes(), 0u);  // really the scatter path
  });
  EXPECT_EQ(flat, (std::array<uint64_t, 3>{1, 1, 1}));
  EXPECT_EQ(scatter, flat);
}

}  // namespace
}  // namespace clio
