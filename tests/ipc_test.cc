// ServiceDispatcher tests: the request accounting and reply shape of its
// single entry point. The protocol end to end is covered over TCP in
// net_test and event_loop_test.
#include <gtest/gtest.h>

#include <array>

#include "src/ipc/codec.h"
#include "src/obs/metrics.h"
#include "src/partition/partitioned_service.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::ServiceFixture;

// One kReadBatch through Dispatch leaves one delta in the request
// counter, the all-ops histogram and the read-class histogram, and its
// payloads leave as borrowed slices over the block images.
TEST(ServiceDispatcherTest, ReadBatchIsAccountedOnceAndBorrowsPayloads) {
  ServiceFixture fx = ServiceFixture::Make();
  ASSERT_OK_AND_ASSIGN(auto view,
                       PartitionedLogService::Wrap(fx.service.get()));
  ASSERT_OK(view->CreateLogFile("/acct").status());
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(view->Append("/acct", AsBytes("e" + std::to_string(i))).status());
  }
  ServiceDispatcher dispatcher(
      view.get(),
      [&](const AppendRequest& request) {
        return view->Append(request.path, request.payload);
      },
      [] { return HealthReport{}; });
  Bytes open_body;
  ByteWriter(&open_body).PutString("/acct");
  ASSERT_OK_AND_ASSIGN(
      Bytes opened,
      DecodeReplyBody(
          dispatcher.Dispatch(LogOp::kOpenReader, open_body).Flatten()));
  Bytes batch_body;
  ByteWriter w(&batch_body);
  w.PutU64(ByteReader(opened).GetU64());
  w.PutU32(4);

  auto count = [](const StatsSnapshot& s, const char* name) -> uint64_t {
    auto h = s.histogram(name);
    return h.has_value() ? h->count : 0;
  };
  const StatsSnapshot before = ObsRegistry().Snapshot();
  WireMessage reply = dispatcher.Dispatch(LogOp::kReadBatch, batch_body);
  const StatsSnapshot after = ObsRegistry().Snapshot();
  const std::array<uint64_t, 3> deltas = {
      after.counter("clio.rpc.requests.read_batch") -
          before.counter("clio.rpc.requests.read_batch"),
      count(after, "clio.rpc.request_us") -
          count(before, "clio.rpc.request_us"),
      count(after, "clio.rpc.read_us") - count(before, "clio.rpc.read_us")};
  EXPECT_EQ(deltas, (std::array<uint64_t, 3>{1, 1, 1}));
  EXPECT_GT(reply.borrowed_bytes(), 0u);
  ASSERT_OK_AND_ASSIGN(Bytes payload, DecodeReplyBody(reply.Flatten()));
  ASSERT_OK_AND_ASSIGN(EntryBatch batch, DecodeEntryBatch(payload));
  ASSERT_EQ(batch.entries.size(), 4u);
  EXPECT_EQ(ToString(batch.entries[3].payload), "e3");
}

}  // namespace
}  // namespace clio
