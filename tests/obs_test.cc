// Metrics registry: bucket boundaries, concurrency, snapshot consistency,
// the per-partition lane fold, the stage timer, and the wire round trip
// the kStats op relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace clio {
namespace {

// ---------------------------------------------------------------------------
// Histogram bucket boundaries

TEST(HistogramBuckets, PowerOfTwoBoundaries) {
  // Bucket i holds (2^(i-1), 2^i]; 0 and 1 land in bucket 0.
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 0u);
  EXPECT_EQ(Histogram::BucketFor(2), 1u);
  EXPECT_EQ(Histogram::BucketFor(3), 2u);
  EXPECT_EQ(Histogram::BucketFor(4), 2u);
  EXPECT_EQ(Histogram::BucketFor(5), 3u);
  EXPECT_EQ(Histogram::BucketFor(8), 3u);
  EXPECT_EQ(Histogram::BucketFor(9), 4u);
  for (size_t b = 1; b + 1 < Histogram::kBucketCount; ++b) {
    uint64_t upper = Histogram::UpperBound(b);
    EXPECT_EQ(Histogram::BucketFor(upper), b) << "upper bound of " << b;
    EXPECT_EQ(Histogram::BucketFor(upper + 1), b + 1)
        << "just past bucket " << b;
  }
}

TEST(HistogramBuckets, HugeValuesClampToLastBucket) {
  EXPECT_EQ(Histogram::BucketFor(UINT64_MAX), Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::BucketFor(uint64_t{1} << 40),
            Histogram::kBucketCount - 1);
}

TEST(HistogramBuckets, RecordAggregates) {
  Histogram h;
  h.Record(1);
  h.Record(100);
  h.Record(7);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 108u);
  EXPECT_EQ(h.max(), 100u);
}

TEST(HistogramSnapshotTest, PercentilesBracketTheData) {
  MetricsRegistry registry;
  Histogram* reg = registry.histogram("t");
  for (uint64_t v = 1; v <= 1000; ++v) {
    reg->Record(v);
  }
  StatsSnapshot snap = registry.Snapshot();
  auto hs = snap.histogram("t");
  ASSERT_TRUE(hs.has_value());
  EXPECT_EQ(hs->count, 1000u);
  EXPECT_EQ(hs->max, 1000u);
  // Bucketed percentiles are approximate, but must be ordered, nonzero,
  // and clamped to the observed max.
  EXPECT_GT(hs->p50(), 0.0);
  EXPECT_LE(hs->p50(), hs->p90());
  EXPECT_LE(hs->p90(), hs->p95());
  EXPECT_LE(hs->p95(), hs->p99());
  EXPECT_LE(hs->p99(), 1000.0);
  // p50 of 1..1000 is 500; the bucket (512,1024] gives at most 2x error.
  EXPECT_GE(hs->p50(), 250.0);
  EXPECT_LE(hs->p50(), 1000.0);
}

TEST(HistogramSnapshotTest, EmptyHistogramIsAllZero) {
  MetricsRegistry registry;
  registry.histogram("empty");
  auto hs = registry.Snapshot().histogram("empty");
  ASSERT_TRUE(hs.has_value());
  EXPECT_EQ(hs->count, 0u);
  EXPECT_EQ(hs->Percentile(0.99), 0.0);
  EXPECT_EQ(hs->Mean(), 0.0);
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.counter("x");
  Counter* b = registry.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.counter("y"), a);
  a->Increment(3);
  EXPECT_EQ(registry.Snapshot().counter("x"), 3u);
  EXPECT_EQ(registry.Snapshot().counter("never-registered"), 0u);
}

TEST(Registry, GaugeTracksLevel) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("depth");
  g->Add(5);
  g->Add(-2);
  EXPECT_EQ(registry.Snapshot().gauge("depth"), 3);
  g->Set(-7);
  EXPECT_EQ(registry.Snapshot().gauge("depth"), -7);
}

TEST(Registry, ResetForTestZeroesInPlace) {
  MetricsRegistry registry;
  Counter* c = registry.counter("c");
  Histogram* h = registry.histogram("h");
  c->Increment(9);
  h->Record(1234);
  registry.ResetForTest();
  EXPECT_EQ(c->value(), 0u);  // same pointer, zeroed in place
  EXPECT_EQ(h->count(), 0u);
  EXPECT_EQ(h->sum(), 0u);
  EXPECT_EQ(h->max(), 0u);
}

// Run under TSan in CI: concurrent increments on shared metrics must be
// race-free and lose no updates.
TEST(Registry, ConcurrentIncrementsLoseNothing) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Each thread resolves the metric itself: registration races too.
      Counter* c = registry.counter("shared.counter");
      Histogram* h = registry.histogram("shared.hist");
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(static_cast<uint64_t>(i % 512));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  StatsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("shared.counter"),
            static_cast<uint64_t>(kThreads) * kPerThread);
  auto hs = snap.histogram("shared.hist");
  ASSERT_TRUE(hs.has_value());
  EXPECT_EQ(hs->count, static_cast<uint64_t>(kThreads) * kPerThread);
}

// A snapshot taken while writers are mid-flight must still satisfy the
// histogram invariant count == sum(buckets) — count is defined as the
// bucket total at read time, so this holds by construction.
TEST(Registry, SnapshotWhileWritingIsInternallyConsistent) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("live");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([h, &stop] {
      uint64_t v = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        h->Record(v);
        v = v * 2654435761u + 1;
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    StatsSnapshot snap = registry.Snapshot();
    auto hs = snap.histogram("live");
    ASSERT_TRUE(hs.has_value());
    uint64_t bucket_total = 0;
    for (uint64_t b : hs->buckets) {
      bucket_total += b;
    }
    EXPECT_EQ(hs->count, bucket_total) << "snapshot " << i;
  }
  stop.store(true);
  for (auto& t : writers) {
    t.join();
  }
}

// ---------------------------------------------------------------------------
// Wire round trip and JSON

TEST(StatsWire, EncodeDecodeRoundTrip) {
  MetricsRegistry registry;
  registry.counter("a.count")->Increment(42);
  registry.gauge("b.level")->Set(-17);
  Histogram* h = registry.histogram("c.lat_us");
  h->Record(3);
  h->Record(900);
  h->Record(70'000);
  StatsSnapshot original = registry.Snapshot();

  Bytes wire = EncodeStatsSnapshot(original);
  auto decoded = DecodeStatsSnapshot(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->counter("a.count"), 42u);
  EXPECT_EQ(decoded->gauge("b.level"), -17);
  auto hs = decoded->histogram("c.lat_us");
  ASSERT_TRUE(hs.has_value());
  EXPECT_EQ(hs->count, 3u);
  EXPECT_EQ(hs->sum, original.histogram("c.lat_us")->sum);
  EXPECT_EQ(hs->max, 70'000u);
  for (size_t i = 0; i < Histogram::kBucketCount; ++i) {
    EXPECT_EQ(hs->buckets[i], original.histogram("c.lat_us")->buckets[i]);
  }
}

TEST(StatsWire, RejectsGarbage) {
  Bytes garbage(11, std::byte{0xEE});
  EXPECT_FALSE(DecodeStatsSnapshot(garbage).ok());
  EXPECT_FALSE(DecodeStatsSnapshot({}).ok());
}

TEST(StatsWire, TruncatedPayloadFailsCleanly) {
  MetricsRegistry registry;
  registry.counter("a")->Increment();
  registry.histogram("h")->Record(5);
  Bytes wire = EncodeStatsSnapshot(registry.Snapshot());
  for (size_t cut = 1; cut < wire.size(); cut += 7) {
    auto r = DecodeStatsSnapshot(std::span(wire).first(wire.size() - cut));
    EXPECT_FALSE(r.ok()) << "cut " << cut;
  }
}

TEST(StatsJson, WellFormedAndComplete) {
  MetricsRegistry registry;
  registry.counter("requests")->Increment(5);
  registry.gauge("sessions")->Set(2);
  registry.histogram("lat")->Record(10);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"requests\":5"), std::string::npos);
  EXPECT_NE(json.find("\"sessions\":2"), std::string::npos);
  EXPECT_NE(json.find("\"lat\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  // Balanced braces/brackets — the cheap well-formedness check.
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') {
      ++depth;
    }
    if (c == '}' || c == ']') {
      --depth;
    }
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// The one stage timer: the histogram always gets the sample, the flight
// recorder a span only when the stage is traced, and both get the same
// duration from the same two clock reads.
TEST(StageTimerTest, FeedsTheHistogramAndSpansOnlyWhenTraced) {
  auto& recorder = FlightRecorder::Instance();
  recorder.ResetForTest();
  MetricsRegistry registry;
  Histogram* h = registry.histogram("t");

  { StageTimer untraced(h, TraceStage::kDispatch); }  // no trace context
  EXPECT_EQ(h->count(), 1u);
  EXPECT_TRUE(recorder.Collect().spans.empty());

  const uint64_t sum_before = h->sum();
  {
    ScopedTraceContext scope(0x5000'0001);
    StageTimer traced(h, TraceStage::kForce);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(h->count(), 2u);
  TraceDump dump = recorder.Collect();
  ASSERT_EQ(dump.spans.size(), 1u);
  EXPECT_EQ(dump.spans[0].trace_id, 0x5000'0001u);
  EXPECT_EQ(dump.spans[0].stage, TraceStage::kForce);
  EXPECT_GE(dump.spans[0].dur_us, 2000u);
  EXPECT_EQ(h->sum() - sum_before, dump.spans[0].dur_us);

  {
    ScopedTraceContext scope(0x5000'0002);
    StageTimer span_only(nullptr, TraceStage::kBurn);
  }
  EXPECT_EQ(h->count(), 2u);  // a null histogram records the span only
  dump = recorder.Collect();
  ASSERT_EQ(dump.spans.size(), 2u);
  EXPECT_EQ(dump.spans[1].trace_id, 0x5000'0002u);
  EXPECT_EQ(dump.spans[1].stage, TraceStage::kBurn);
}

// ---------------------------------------------------------------------------
// Per-partition lanes

TEST(MetricLanes, NamingRuleRoundTrips) {
  EXPECT_EQ(LaneMetricName("clio.volume.appends", std::nullopt),
            "clio.volume.appends");
  EXPECT_EQ(LaneMetricName("clio.volume.appends", 12),
            "clio.volume.appends.p12");
  auto lane = ParseLaneMetricName("clio.volume.appends.p12");
  ASSERT_TRUE(lane.has_value());
  EXPECT_EQ(lane->base, "clio.volume.appends");
  EXPECT_EQ(lane->lane, 12u);
  for (const char* bare : {"clio.volume.appends", "clio.volume.appends.p",
                           "clio.volume.appends.p1x", "clio.process.rss_bytes",
                           ".p3", "clio.x.p99999999999"}) {
    EXPECT_FALSE(ParseLaneMetricName(bare).has_value()) << bare;
  }
}

TEST(MetricLanes, SnapshotFoldsEveryLaneIntoTheBareName) {
  MetricsRegistry registry;
  registry.counter("c")->Increment(1);  // a standalone service's direct value
  registry.counter("c.p0")->Increment(2);
  registry.counter("c.p1")->Increment(4);
  registry.gauge("g.p0")->Add(3);
  registry.gauge("g.p2")->Add(-1);
  registry.histogram("h.p0")->Record(3);
  registry.histogram("h.p1")->Record(100);
  registry.histogram("h.p1")->Record(5);

  const StatsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("c"), 7u);
  EXPECT_EQ(snap.counter("c.p1"), 4u);  // lanes stay visible
  EXPECT_EQ(snap.gauge("g"), 2);
  EXPECT_EQ(snap.gauge("g.p2"), -1);
  auto h = snap.histogram("h");
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum, 108u);
  EXPECT_EQ(h->max, 100u);
  EXPECT_EQ(h->buckets[Histogram::BucketFor(3)], 1u);
  EXPECT_EQ(h->buckets[Histogram::BucketFor(5)], 1u);
  EXPECT_EQ(h->buckets[Histogram::BucketFor(100)], 1u);
  EXPECT_EQ(snap.histogram("h.p0")->count, 1u);
}

TEST(ObsRegistryTest, ProcessWideSingleton) {
  EXPECT_EQ(&ObsRegistry(), &ObsRegistry());
  Counter* c = ObsRegistry().counter("obs_test.unique.counter");
  c->Increment();
  EXPECT_GE(ObsRegistry().Snapshot().counter("obs_test.unique.counter"), 1u);
}

}  // namespace
}  // namespace clio
