// Flight recorder, trace context, dump codec, and export tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/trace.h"
#include "tests/test_util.h"

namespace clio {
namespace {

// Distinct id spaces per test so tests in this binary (which share the
// process-wide recorder) never see each other's spans.
constexpr uint64_t kIdBase = 0x1000'0000ull;

TEST(TraceContext, NestsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    ScopedTraceContext outer(kIdBase + 1);
    EXPECT_EQ(CurrentTraceId(), kIdBase + 1);
    {
      ScopedTraceContext inner(kIdBase + 2);
      EXPECT_EQ(CurrentTraceId(), kIdBase + 2);
    }
    EXPECT_EQ(CurrentTraceId(), kIdBase + 1);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST(TraceContext, IsThreadLocal) {
  ScopedTraceContext mine(kIdBase + 10);
  uint64_t seen_on_other_thread = 99;
  std::thread other([&] { seen_on_other_thread = CurrentTraceId(); });
  other.join();
  EXPECT_EQ(seen_on_other_thread, 0u);
  EXPECT_EQ(CurrentTraceId(), kIdBase + 10);
}

TEST(FlightRecorderTest, RecordsAndCollects) {
  auto& recorder = FlightRecorder::Instance();
  recorder.ResetForTest();
  recorder.Record(kIdBase + 20, TraceStage::kBurn, 100, 50);
  recorder.Record(kIdBase + 20, TraceStage::kForce, 90, 70);
  recorder.Record(kIdBase + 21, TraceStage::kDispatch, 10, 5);

  TraceDump dump = recorder.Collect();
  ASSERT_EQ(dump.spans.size(), 3u);
  EXPECT_EQ(dump.dropped, 0u);
  // Sorted by start time.
  EXPECT_EQ(dump.spans[0].trace_id, kIdBase + 21);
  EXPECT_EQ(dump.spans[1].stage, TraceStage::kForce);
  EXPECT_EQ(dump.spans[2].stage, TraceStage::kBurn);
  EXPECT_EQ(dump.spans[2].start_us, 100u);
  EXPECT_EQ(dump.spans[2].dur_us, 50u);
}

TEST(FlightRecorderTest, IgnoresUntracedRecords) {
  auto& recorder = FlightRecorder::Instance();
  recorder.ResetForTest();
  recorder.Record(0, TraceStage::kBurn, 1, 1);  // id 0 = not traced
  EXPECT_TRUE(recorder.Collect().spans.empty());
}

TEST(FlightRecorderTest, SpanTimerUsesTheCurrentContext) {
  auto& recorder = FlightRecorder::Instance();
  recorder.ResetForTest();
  {
    // No context: the timer must record nothing.
    StageTimer untraced(nullptr, TraceStage::kDispatch);
  }
  {
    ScopedTraceContext scope(kIdBase + 30);
    StageTimer traced(nullptr, TraceStage::kVolumeAppend);
    // The histogram-only form never spans, even inside a context.
    StageTimer histogram_only(nullptr);
  }
  {
    // The explicit id wins over the thread's context.
    ScopedTraceContext scope(kIdBase + 31);
    StageTimer client(nullptr, TraceStage::kClientCall, kIdBase + 32);
  }
  TraceDump dump = recorder.Collect();
  ASSERT_EQ(dump.spans.size(), 2u);
  EXPECT_EQ(dump.spans[0].trace_id, kIdBase + 30);
  EXPECT_EQ(dump.spans[0].stage, TraceStage::kVolumeAppend);
  EXPECT_EQ(dump.spans[1].trace_id, kIdBase + 32);
  EXPECT_EQ(dump.spans[1].stage, TraceStage::kClientCall);
}

TEST(FlightRecorderTest, RingWrapCountsDrops) {
  auto& recorder = FlightRecorder::Instance();
  recorder.ResetForTest();
  const size_t total = FlightRecorder::kRingSpans + 100;
  for (size_t i = 0; i < total; ++i) {
    recorder.Record(kIdBase + 40, TraceStage::kBurn, i, 1);
  }
  TraceDump dump = recorder.Collect();
  EXPECT_EQ(dump.spans.size(), FlightRecorder::kRingSpans);
  EXPECT_GE(dump.dropped, 100u);
  // The survivors are the newest spans.
  EXPECT_EQ(dump.spans.back().start_us, total - 1);
  EXPECT_EQ(dump.spans.front().start_us, 100u);
}

TEST(FlightRecorderTest, MaxSpansKeepsNewestAndCountsTheCut) {
  auto& recorder = FlightRecorder::Instance();
  recorder.ResetForTest();
  for (size_t i = 0; i < 10; ++i) {
    recorder.Record(kIdBase + 50, TraceStage::kBurn, i, 1);
  }
  TraceDump dump = recorder.Collect(/*min_total_us=*/0, /*max_spans=*/4);
  ASSERT_EQ(dump.spans.size(), 4u);
  EXPECT_EQ(dump.dropped, 6u);
  EXPECT_EQ(dump.spans.front().start_us, 6u);
  EXPECT_EQ(dump.spans.back().start_us, 9u);
}

TEST(FlightRecorderTest, SlowRequestFilterKeepsWholeTraces) {
  auto& recorder = FlightRecorder::Instance();
  recorder.ResetForTest();
  // Fast request: 2 spans totalling 10us. Slow request: starts at 0,
  // ends at 5000.
  recorder.Record(kIdBase + 60, TraceStage::kDispatch, 100, 10);
  recorder.Record(kIdBase + 60, TraceStage::kVolumeAppend, 102, 5);
  recorder.Record(kIdBase + 61, TraceStage::kDispatch, 0, 5000);
  recorder.Record(kIdBase + 61, TraceStage::kForce, 10, 400);

  TraceDump dump = recorder.Collect(/*min_total_us=*/1000);
  ASSERT_EQ(dump.spans.size(), 2u);  // BOTH spans of the slow trace
  for (const TraceSpan& span : dump.spans) {
    EXPECT_EQ(span.trace_id, kIdBase + 61);
  }
}

// Writers hammer the recorder while a reader collects: the seqlock must
// never surface a torn span. Each span is written with dur = 3 * start,
// so any mixed-up pair is detectable. Run under TSan this is also the
// data-race proof for the lock-free path.
TEST(FlightRecorderTest, ConcurrentRecordAndCollectYieldOnlyWholeSpans) {
  auto& recorder = FlightRecorder::Instance();
  recorder.ResetForTest();
  constexpr int kWriters = 4;
  constexpr uint64_t kSpansPerWriter = 20'000;
  std::atomic<bool> stop_reading{false};
  std::atomic<uint64_t> torn{0};

  std::thread reader([&] {
    while (!stop_reading.load()) {
      TraceDump dump = recorder.Collect();
      for (const TraceSpan& span : dump.spans) {
        if (span.trace_id >= kIdBase + 70 &&
            span.trace_id < kIdBase + 70 + kWriters &&
            span.dur_us != 3 * span.start_us) {
          torn.fetch_add(1);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (uint64_t i = 1; i <= kSpansPerWriter; ++i) {
        recorder.Record(kIdBase + 70 + w, TraceStage::kBurn, i, 3 * i);
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop_reading.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);

  // After the dust settles every surviving span is whole too.
  TraceDump dump = recorder.Collect();
  EXPECT_FALSE(dump.spans.empty());
  for (const TraceSpan& span : dump.spans) {
    EXPECT_EQ(span.dur_us, 3 * span.start_us);
  }
}

// Rings outlive their threads (spans stay collectable) and are recycled
// for new threads, bounding memory by peak concurrency.
TEST(FlightRecorderTest, ThreadExitKeepsSpansAndRecyclesTheRing) {
  auto& recorder = FlightRecorder::Instance();
  recorder.ResetForTest();
  std::thread t1([&] {
    recorder.Record(kIdBase + 80, TraceStage::kBurn, 1, 1);
  });
  t1.join();
  TraceDump dump = recorder.Collect();
  ASSERT_EQ(dump.spans.size(), 1u);  // the dead thread's span survives
  uint32_t first_ring = dump.spans[0].thread;

  std::thread t2([&] {
    recorder.Record(kIdBase + 81, TraceStage::kBurn, 2, 1);
  });
  t2.join();
  dump = recorder.Collect();
  ASSERT_EQ(dump.spans.size(), 2u);
  // The second thread reused the first thread's (freed) ring.
  EXPECT_EQ(dump.spans[1].thread, first_ring);
}

// ---------------------------------------------------------------------------
// Summaries

TEST(TraceSummaryTest, GroupsAndRanksByTotalLatency) {
  std::vector<TraceSpan> spans;
  spans.push_back({kIdBase + 90, TraceStage::kDispatch, 0, 100, 40});
  spans.push_back({kIdBase + 90, TraceStage::kForce, 0, 110, 20});
  spans.push_back({kIdBase + 91, TraceStage::kDispatch, 1, 50, 500});
  spans.push_back({kIdBase + 91, TraceStage::kForce, 1, 60, 30});
  spans.push_back({kIdBase + 91, TraceStage::kForce, 1, 100, 30});

  auto summaries = SummarizeTraces(spans);
  ASSERT_EQ(summaries.size(), 2u);
  // Slowest first.
  EXPECT_EQ(summaries[0].trace_id, kIdBase + 91);
  EXPECT_EQ(summaries[0].total_us, 500u);
  EXPECT_EQ(summaries[0].start_us, 50u);
  EXPECT_EQ(summaries[0].span_count, 3u);
  // Same-stage spans sum.
  EXPECT_EQ(summaries[0].stage_us.at(TraceStage::kForce), 60u);
  EXPECT_EQ(summaries[1].trace_id, kIdBase + 90);
  // total = max end (140) - min start (100)
  EXPECT_EQ(summaries[1].total_us, 40u);
}

TEST(TraceSummaryTest, TotalIsIndependentOfSpanOrder) {
  // Decoded dumps carry no sortedness guarantee: a span that starts
  // earlier than everything already accumulated must widen the summary,
  // not drag the accumulated end down with the new minimum start.
  std::vector<TraceSpan> spans;
  spans.push_back({kIdBase + 92, TraceStage::kForce, 0, 100, 10});
  spans.push_back({kIdBase + 92, TraceStage::kSessionRead, 0, 0, 5});

  auto summaries = SummarizeTraces(spans);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_EQ(summaries[0].start_us, 0u);
  // total = max end (110) - min start (0), regardless of arrival order.
  EXPECT_EQ(summaries[0].total_us, 110u);

  std::reverse(spans.begin(), spans.end());
  auto sorted = SummarizeTraces(spans);
  ASSERT_EQ(sorted.size(), 1u);
  EXPECT_EQ(sorted[0].total_us, 110u);
}

// ---------------------------------------------------------------------------
// Wire codec

TEST(TraceDumpCodec, RoundTrips) {
  TraceDump dump;
  dump.dropped = 17;
  dump.spans.push_back({kIdBase + 95, TraceStage::kBurn, 3, 1000, 250});
  dump.spans.push_back({kIdBase + 96, TraceStage::kClientCall, 0, 900, 800});

  Bytes wire = EncodeTraceDump(dump);
  ASSERT_OK_AND_ASSIGN(TraceDump decoded, DecodeTraceDump(wire));
  EXPECT_EQ(decoded.dropped, 17u);
  ASSERT_EQ(decoded.spans.size(), 2u);
  EXPECT_EQ(decoded.spans[0].trace_id, kIdBase + 95);
  EXPECT_EQ(decoded.spans[0].stage, TraceStage::kBurn);
  EXPECT_EQ(decoded.spans[0].thread, 3u);
  EXPECT_EQ(decoded.spans[0].start_us, 1000u);
  EXPECT_EQ(decoded.spans[0].dur_us, 250u);
  EXPECT_EQ(decoded.spans[1].stage, TraceStage::kClientCall);
}

TEST(TraceDumpCodec, EmptyDumpRoundTrips) {
  ASSERT_OK_AND_ASSIGN(TraceDump decoded, DecodeTraceDump(EncodeTraceDump({})));
  EXPECT_TRUE(decoded.spans.empty());
  EXPECT_EQ(decoded.dropped, 0u);
}

TEST(TraceDumpCodec, RejectsMalformedPayloads) {
  TraceDump dump;
  dump.spans.push_back({kIdBase + 97, TraceStage::kBurn, 0, 1, 1});
  Bytes wire = EncodeTraceDump(dump);
  // Truncated mid-span.
  Bytes cut(wire.begin(), wire.end() - 4);
  EXPECT_EQ(DecodeTraceDump(cut).status().code(), StatusCode::kCorrupt);
  // Unsupported version.
  Bytes bad_version = wire;
  bad_version[0] = std::byte{0xFF};
  bad_version[1] = std::byte{0xFF};
  EXPECT_EQ(DecodeTraceDump(bad_version).status().code(),
            StatusCode::kCorrupt);
  // Empty buffer.
  EXPECT_FALSE(DecodeTraceDump({}).ok());
}

TEST(TraceDumpCodec, UnknownStageDecodesAsUnknownNotGarbage) {
  TraceDump dump;
  dump.spans.push_back({kIdBase + 98, TraceStage::kBurn, 0, 1, 1});
  Bytes wire = EncodeTraceDump(dump);
  // The stage byte sits right after version(2) + dropped(8) + count(4) +
  // trace_id(8).
  wire[2 + 8 + 4 + 8] = std::byte{200};
  ASSERT_OK_AND_ASSIGN(TraceDump decoded, DecodeTraceDump(wire));
  ASSERT_EQ(decoded.spans.size(), 1u);
  EXPECT_EQ(TraceStageName(decoded.spans[0].stage), "reply_write");
}

// ---------------------------------------------------------------------------
// Chrome trace_event export

TEST(ChromeTraceExport, EmitsOneCompleteEventPerSpan) {
  TraceDump dump;
  dump.dropped = 2;
  dump.spans.push_back({0xABCD, TraceStage::kBurn, 7, 1000, 250});
  dump.spans.push_back({0xABCE, TraceStage::kForce, 8, 2000, 90});
  std::string json = TraceDumpToChromeJson(dump);

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"burn\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"force\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"0xabcd\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":\"2\""), std::string::npos);
  // Balanced braces/brackets: the file must parse as JSON.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(ChromeTraceExport, EmptyDumpIsStillValidJson) {
  std::string json = TraceDumpToChromeJson({});
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(TraceStageNameTest, CoversEveryStage) {
  std::set<std::string_view> names;
  for (uint8_t s = 1; s <= static_cast<uint8_t>(TraceStage::kReplyWrite);
       ++s) {
    names.insert(TraceStageName(static_cast<TraceStage>(s)));
  }
  EXPECT_EQ(names.size(),
            static_cast<size_t>(TraceStage::kReplyWrite));  // all distinct
  EXPECT_FALSE(names.contains("unknown"));
  EXPECT_EQ(TraceStageName(static_cast<TraceStage>(250)), "unknown");
  EXPECT_EQ(TraceStageName(TraceStage::kUnknown), "unknown");
}

}  // namespace
}  // namespace clio
