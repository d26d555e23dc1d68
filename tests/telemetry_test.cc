// Telemetry journal, health plane, and slow-request ring tests
// (DESIGN.md §18): record codec round-trips, windowed-rate math across
// counter resets, replay annotations, HEALTH state transitions under
// injected SLO breaches, the /.sys namespace guard, wire exemplars, and
// a kill/restart chaos cycle proving the journal spans incarnations.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/clio/verify.h"
#include "src/device/memory_worm_device.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;
using testing::ServiceFixture;

// ---------------------------------------------------------------------------
// Reserved namespace predicate

TEST(ReservedPath, MatchesTheSysTreeOnly) {
  EXPECT_TRUE(IsReservedSystemPath("/.sys"));
  EXPECT_TRUE(IsReservedSystemPath("/.sys/telemetry"));
  EXPECT_TRUE(IsReservedSystemPath("/.sys/deep/er"));
  EXPECT_FALSE(IsReservedSystemPath("/"));
  EXPECT_FALSE(IsReservedSystemPath("/.system"));   // sibling, not child
  EXPECT_FALSE(IsReservedSystemPath("/mail/.sys")); // not at the root
  EXPECT_FALSE(IsReservedSystemPath("/adm/audit"));
}

// ---------------------------------------------------------------------------
// Record codec

TelemetryRecord SampleRecord() {
  TelemetryRecord record;
  record.boot_id = 0xB007B007B007B007ull;
  record.sequence = 42;
  record.sampled_at_us = 123'456'789;
  record.window_us = 1'000'000;
  record.dictionary = {{1, "clio.rpc.requests.append"},
                       {2, "clio.net.loop.queue_depth"},
                       {3, "clio.rpc.append_us"}};
  record.counter_deltas = {{1, 17}, {9, 1}};
  record.gauges = {{2, -5}, {8, 1'234'567}};
  TelemetryRecord::HistogramDelta hist;
  hist.count_delta = 10;
  hist.sum_delta = 5'000;
  hist.max = 900;
  hist.bucket_deltas = {{3, 4}, {9, 6}};
  record.histograms = {{3, hist}};
  return record;
}

TEST(TelemetryRecordCodec, RoundTripsEveryField) {
  const TelemetryRecord record = SampleRecord();
  Bytes wire = EncodeTelemetryRecord(record);
  ASSERT_OK_AND_ASSIGN(TelemetryRecord decoded, DecodeTelemetryRecord(wire));
  EXPECT_EQ(decoded, record);
}

TEST(TelemetryRecordCodec, RoundTripsAnEmptyFirstSample) {
  TelemetryRecord record;
  record.boot_id = 7;
  record.sequence = 1;
  Bytes wire = EncodeTelemetryRecord(record);
  ASSERT_OK_AND_ASSIGN(TelemetryRecord decoded, DecodeTelemetryRecord(wire));
  EXPECT_EQ(decoded, record);
}

TEST(TelemetryRecordCodec, EveryTruncationFailsCleanly) {
  Bytes wire = EncodeTelemetryRecord(SampleRecord());
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    auto decoded =
        DecodeTelemetryRecord(std::span(wire.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "decoded a record cut to " << cut
                               << " of " << wire.size() << " bytes";
  }
}

TEST(TelemetryRecordCodec, FutureVersionIsFailedPreconditionNotCorrupt) {
  Bytes wire = EncodeTelemetryRecord(SampleRecord());
  // Version is the leading little-endian u16; a build from the future
  // must be distinguishable from wire damage so replay can say which.
  wire[0] = std::byte{0xEE};
  wire[1] = std::byte{0x03};
  auto decoded = DecodeTelemetryRecord(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);

  wire[0] = std::byte{0};
  wire[1] = std::byte{0};
  auto zero = DecodeTelemetryRecord(wire);
  ASSERT_FALSE(zero.ok());
}

// ---------------------------------------------------------------------------
// Windowed delta math

StatsSnapshot MakeSnapshot(uint64_t appends, uint64_t reads,
                           int64_t queue_depth) {
  StatsSnapshot snap;
  snap.counters["clio.rpc.requests.append"] = appends;
  snap.counters["clio.rpc.requests.read_next"] = reads;
  snap.gauges["clio.net.loop.queue_depth"] = queue_depth;
  return snap;
}

TEST(DiffSnapshots, ComputesDeltasAndOmitsZeroes) {
  std::map<std::string, uint32_t> ids;
  uint32_t next_id = 1;
  StatsSnapshot prev = MakeSnapshot(100, 40, 3);
  StatsSnapshot cur = MakeSnapshot(150, 40, 9);
  TelemetryRecord first = DiffSnapshots(prev, nullptr, &ids, &next_id);
  EXPECT_EQ(first.dictionary.size(), 3u);  // every name interned once

  TelemetryRecord record = DiffSnapshots(cur, &prev, &ids, &next_id);
  EXPECT_TRUE(record.dictionary.empty()) << "names re-interned";
  ASSERT_EQ(record.counter_deltas.size(), 1u)
      << "zero-delta counter should be omitted";
  EXPECT_EQ(record.counter_deltas.at(ids.at("clio.rpc.requests.append")),
            50u);
  // Gauges are always absolute so replay recovers levels after any gap.
  EXPECT_EQ(record.gauges.at(ids.at("clio.net.loop.queue_depth")), 9);
}

TEST(DiffSnapshots, CounterResetClampsToTheNewValue) {
  std::map<std::string, uint32_t> ids;
  uint32_t next_id = 1;
  StatsSnapshot prev = MakeSnapshot(1000, 0, 0);
  (void)DiffSnapshots(prev, nullptr, &ids, &next_id);
  // A restarted exporter restarts its counters: current < previous must
  // read as "current new events", never as a huge unsigned wraparound.
  StatsSnapshot cur = MakeSnapshot(30, 0, 0);
  TelemetryRecord record = DiffSnapshots(cur, &prev, &ids, &next_id);
  EXPECT_EQ(record.counter_deltas.at(ids.at("clio.rpc.requests.append")),
            30u);
}

TEST(DiffSnapshots, HistogramDeltasAreSparseBuckets) {
  std::map<std::string, uint32_t> ids;
  uint32_t next_id = 1;
  StatsSnapshot prev;
  prev.histograms["clio.rpc.append_us"].buckets[4] = 10;
  prev.histograms["clio.rpc.append_us"].count = 10;
  prev.histograms["clio.rpc.append_us"].sum = 160;
  StatsSnapshot cur = prev;
  cur.histograms["clio.rpc.append_us"].buckets[4] = 12;
  cur.histograms["clio.rpc.append_us"].buckets[7] = 5;
  cur.histograms["clio.rpc.append_us"].count = 17;
  cur.histograms["clio.rpc.append_us"].sum = 700;
  cur.histograms["clio.rpc.append_us"].max = 100;
  (void)DiffSnapshots(prev, nullptr, &ids, &next_id);
  TelemetryRecord record = DiffSnapshots(cur, &prev, &ids, &next_id);
  const auto& hist =
      record.histograms.at(ids.at("clio.rpc.append_us"));
  EXPECT_EQ(hist.count_delta, 7u);
  EXPECT_EQ(hist.sum_delta, 540u);
  EXPECT_EQ(hist.max, 100u);
  EXPECT_EQ(hist.bucket_deltas,
            (std::map<uint32_t, uint64_t>{{4, 2}, {7, 5}}));
}

// ---------------------------------------------------------------------------
// Replay: rates, gaps, restarts, skipped records

TEST(TelemetryReplay, ResolvesNamesComputesRatesAndAnnotatesGaps) {
  std::map<std::string, uint32_t> ids;
  uint32_t next_id = 1;
  StatsSnapshot s1 = MakeSnapshot(0, 0, 1);
  StatsSnapshot s2 = MakeSnapshot(50, 0, 2);
  StatsSnapshot s3 = MakeSnapshot(90, 0, 3);

  TelemetryRecord r1 = DiffSnapshots(s1, nullptr, &ids, &next_id);
  r1.boot_id = 11;
  r1.sequence = 1;
  TelemetryRecord r2 = DiffSnapshots(s2, &s1, &ids, &next_id);
  r2.boot_id = 11;
  r2.sequence = 2;
  r2.window_us = 2'000'000;
  // Sequence 3 was lost (failed append); 4 survives.
  TelemetryRecord r4 = DiffSnapshots(s3, &s2, &ids, &next_id);
  r4.boot_id = 11;
  r4.sequence = 4;
  r4.window_us = 1'000'000;

  TelemetryReplay replay;
  replay.Feed(100, EncodeTelemetryRecord(r1));
  replay.Feed(200, EncodeTelemetryRecord(r2));
  replay.Feed(300, EncodeTelemetryRecord(r4));

  ASSERT_EQ(replay.points().size(), 3u);
  const TelemetryPoint& p2 = replay.points()[1];
  EXPECT_EQ(p2.entry_timestamp, 200u);
  EXPECT_EQ(p2.counter_deltas.at("clio.rpc.requests.append"), 50u);
  EXPECT_DOUBLE_EQ(p2.rates.at("clio.rpc.requests.append"), 25.0);
  EXPECT_EQ(p2.gauges.at("clio.net.loop.queue_depth"), 2);

  ASSERT_EQ(replay.annotations().size(), 1u);
  EXPECT_EQ(replay.annotations()[0].kind, "gap");
  EXPECT_EQ(replay.annotations()[0].point_index, 2u);
  EXPECT_EQ(replay.records_skipped(), 0u);
}

TEST(TelemetryReplay, RestartResetsTheDictionary) {
  std::map<std::string, uint32_t> boot1_ids;
  uint32_t next1 = 1;
  StatsSnapshot snap = MakeSnapshot(10, 0, 0);
  TelemetryRecord r1 = DiffSnapshots(snap, nullptr, &boot1_ids, &next1);
  r1.boot_id = 11;
  r1.sequence = 1;

  // The restarted process interns names in a different order; replay must
  // key ids per boot or it would mislabel every metric after the restart.
  std::map<std::string, uint32_t> boot2_ids;
  uint32_t next2 = 5;
  TelemetryRecord r2 = DiffSnapshots(snap, nullptr, &boot2_ids, &next2);
  r2.boot_id = 22;
  r2.sequence = 1;

  TelemetryReplay replay;
  replay.Feed(100, EncodeTelemetryRecord(r1));
  replay.Feed(200, EncodeTelemetryRecord(r2));
  ASSERT_EQ(replay.points().size(), 2u);
  EXPECT_EQ(replay.points()[1].boot_id, 22u);
  EXPECT_EQ(replay.points()[1].counter_deltas.count(
                "clio.rpc.requests.append"),
            1u);
  ASSERT_EQ(replay.annotations().size(), 1u);
  EXPECT_EQ(replay.annotations()[0].kind, "restart");
}

TEST(TelemetryReplay, CorruptRecordIsAnAdvisorySkipNeverFatal) {
  TelemetryRecord good = SampleRecord();
  good.sequence = 1;
  TelemetryReplay replay;
  replay.Feed(100, EncodeTelemetryRecord(good));
  Bytes garbage = EncodeTelemetryRecord(good);
  garbage.resize(garbage.size() / 2);
  replay.Feed(200, garbage);
  TelemetryRecord after = SampleRecord();
  after.sequence = 2;
  replay.Feed(300, EncodeTelemetryRecord(after));

  EXPECT_EQ(replay.points().size(), 2u);
  EXPECT_EQ(replay.records_skipped(), 1u);
  bool skipped_noted = false;
  for (const auto& a : replay.annotations()) {
    skipped_noted |= a.kind == "skipped_record";
  }
  EXPECT_TRUE(skipped_noted);
}

// ---------------------------------------------------------------------------
// Health evaluation under injected breaches

TEST(Health, AllQuietIsOk) {
  StatsSnapshot snap = MakeSnapshot(100, 100, 2);
  HealthReport report =
      EvaluateHealth(snap, nullptr, 0, SloRules::Defaults());
  EXPECT_EQ(report.state, HealthState::kOk);
  EXPECT_TRUE(report.reasons.empty());
}

TEST(Health, GaugeBreachEscalatesThroughDegradedToUnhealthy) {
  SloRules rules = SloRules::Defaults();
  StatsSnapshot snap = MakeSnapshot(0, 0, 500);  // 128 < 500 <= 1024
  HealthReport degraded = EvaluateHealth(snap, nullptr, 0, rules);
  EXPECT_EQ(degraded.state, HealthState::kDegraded);
  ASSERT_EQ(degraded.reasons.size(), 1u);
  EXPECT_EQ(degraded.reasons[0].rule, "worker-queue-depth");
  EXPECT_EQ(degraded.reasons[0].metric, "clio.net.loop.queue_depth");
  EXPECT_DOUBLE_EQ(degraded.reasons[0].value, 500.0);

  snap.gauges["clio.net.loop.queue_depth"] = 5000;
  HealthReport unhealthy = EvaluateHealth(snap, nullptr, 0, rules);
  EXPECT_EQ(unhealthy.state, HealthState::kUnhealthy);
  ASSERT_EQ(unhealthy.reasons.size(), 1u);
  EXPECT_EQ(unhealthy.reasons[0].severity, HealthState::kUnhealthy);
}

TEST(Health, ScrubQuarantineIsDegradedOnly) {
  StatsSnapshot snap;
  snap.gauges["clio.scrub.degraded"] = 40;  // however many, never UNHEALTHY
  HealthReport report =
      EvaluateHealth(snap, nullptr, 0, SloRules::Defaults());
  EXPECT_EQ(report.state, HealthState::kDegraded);
  ASSERT_EQ(report.reasons.size(), 1u);
  EXPECT_EQ(report.reasons[0].rule, "scrub-quarantine");
}

TEST(Health, RulesMatchPerPartitionLaneMirrors) {
  StatsSnapshot snap;
  snap.gauges["clio.scrub.degraded.p2"] = 1;
  HealthReport report =
      EvaluateHealth(snap, nullptr, 0, SloRules::Defaults());
  EXPECT_EQ(report.state, HealthState::kDegraded);
  ASSERT_EQ(report.reasons.size(), 1u);
  EXPECT_EQ(report.reasons[0].metric, "clio.scrub.degraded.p2")
      << "the reason must name the breaching lane";
}

TEST(Health, HistogramP99IsWindowedAgainstThePreviousSnapshot) {
  SloRules rules;
  rules.rules = {{SloRule::Kind::kHistogramP99CeilingUs,
                  "clio.rpc.append_us", 1000, -1, "append-p99"}};
  // Lifetime history holds one catastrophic 4ms append; the current
  // window holds a hundred fast ones. Windowed evaluation must judge the
  // window, not the lifetime.
  StatsSnapshot prev;
  prev.histograms["clio.rpc.append_us"].buckets[12] = 1;  // ~4096us
  prev.histograms["clio.rpc.append_us"].count = 1;
  prev.histograms["clio.rpc.append_us"].sum = 4096;
  prev.histograms["clio.rpc.append_us"].max = 4096;
  StatsSnapshot cur = prev;
  cur.histograms["clio.rpc.append_us"].buckets[5] = 100;  // ~32us
  cur.histograms["clio.rpc.append_us"].count = 101;
  cur.histograms["clio.rpc.append_us"].sum = 4096 + 3200;
  HealthReport windowed = EvaluateHealth(cur, &prev, 1'000'000, rules);
  EXPECT_EQ(windowed.state, HealthState::kOk)
      << "old outlier leaked into the window";
  // Without a previous snapshot the same rules see the lifetime
  // distribution, where the outlier IS the p99.
  HealthReport lifetime = EvaluateHealth(prev, nullptr, 0, rules);
  EXPECT_EQ(lifetime.state, HealthState::kDegraded);

  // An empty window (no appends since the last sample) is not a breach.
  HealthReport idle = EvaluateHealth(cur, &cur, 1'000'000, rules);
  EXPECT_EQ(idle.state, HealthState::kOk);
}

TEST(Health, CounterDeltaRuleIsWindowedAndResetSafe) {
  SloRules rules;
  rules.rules = {{SloRule::Kind::kCounterDeltaCeiling,
                  "clio.device.faults.*", 0, -1, "device-faults"}};
  StatsSnapshot prev;
  prev.counters["clio.device.faults.read"] = 10;
  StatsSnapshot cur = prev;
  HealthReport quiet = EvaluateHealth(cur, &prev, 1'000'000, rules);
  EXPECT_EQ(quiet.state, HealthState::kOk)
      << "old faults with no new ones must not keep the server degraded";

  cur.counters["clio.device.faults.read"] = 11;
  HealthReport faulting = EvaluateHealth(cur, &prev, 1'000'000, rules);
  EXPECT_EQ(faulting.state, HealthState::kDegraded);
  ASSERT_EQ(faulting.reasons.size(), 1u);
  EXPECT_EQ(faulting.reasons[0].metric, "clio.device.faults.read");

  // A counter reset (current < previous) clamps like the sampler does.
  StatsSnapshot reset;
  reset.counters["clio.device.faults.read"] = 0;
  HealthReport after_reset = EvaluateHealth(reset, &prev, 1'000'000, rules);
  EXPECT_EQ(after_reset.state, HealthState::kOk);
}

TEST(Health, ReportRoundTripsOverTheWireEncoding) {
  HealthReport report;
  report.state = HealthState::kDegraded;
  report.evaluated_at_us = 987'654;
  report.reasons = {{"append-p99", "clio.rpc.append_us.p1",
                     HealthState::kDegraded, 61'500.5, 50'000.0}};
  report.exemplars = {{0xDEADBEEF, "append", 72'000, 987'000}};
  Bytes wire = EncodeHealthReport(report);
  ASSERT_OK_AND_ASSIGN(HealthReport decoded, DecodeHealthReport(wire));
  EXPECT_EQ(decoded.state, report.state);
  EXPECT_EQ(decoded.evaluated_at_us, report.evaluated_at_us);
  ASSERT_EQ(decoded.reasons.size(), 1u);
  EXPECT_EQ(decoded.reasons[0].rule, "append-p99");
  EXPECT_EQ(decoded.reasons[0].metric, "clio.rpc.append_us.p1");
  EXPECT_DOUBLE_EQ(decoded.reasons[0].value, 61'500.5);
  EXPECT_DOUBLE_EQ(decoded.reasons[0].bound, 50'000.0);
  ASSERT_EQ(decoded.exemplars.size(), 1u);
  EXPECT_EQ(decoded.exemplars[0].trace_id, 0xDEADBEEFull);
  EXPECT_EQ(decoded.exemplars[0].op, "append");
  EXPECT_EQ(decoded.exemplars[0].total_us, 72'000u);
}

// ---------------------------------------------------------------------------
// Slow-request ring

TEST(SlowRequestRing, CapturesBreachesNewestFirstAndBounded) {
  SlowRequestRing& ring = SlowRequestRing::Instance();
  ring.ResetForTest();
  ring.ConfigureThreshold(RpcClass::kAppend, 100);
  ring.ConfigureThreshold(RpcClass::kRead, 0);  // disabled

  ring.Observe(RpcClass::kAppend, "append", 1, 50);    // under threshold
  ring.Observe(RpcClass::kRead, "read_next", 2, 9999); // class disabled
  ring.Observe(RpcClass::kAppend, "append", 0, 9999);  // untraced request
  for (uint64_t i = 0; i < SlowRequestRing::kCapacity + 10; ++i) {
    ring.Observe(RpcClass::kAppend, "append", 100 + i, 200 + i);
  }
  auto all = ring.Snapshot();
  ASSERT_EQ(all.size(), SlowRequestRing::kCapacity);
  EXPECT_EQ(all.front().trace_id, 100 + SlowRequestRing::kCapacity + 9);
  auto top3 = ring.Snapshot(3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].trace_id, all[0].trace_id);
  EXPECT_EQ(top3[2].trace_id, all[2].trace_id);
  ring.ResetForTest();
}

// ---------------------------------------------------------------------------
// Sampler against a real LogService journal (in-process)

struct JournalFixture {
  ServiceFixture fx = ServiceFixture::Make();
  std::unique_ptr<MetricsRegistry> registry =
      std::make_unique<MetricsRegistry>();

  TelemetryAppendFn AppendFn() {
    return [this](std::span<const std::byte> record) -> Status {
      WriteOptions options;
      options.timestamped = true;
      return fx.service->Append(kTelemetryJournalPath, record, options)
          .status();
    };
  }

  void CreateJournal() {
    ASSERT_OK(fx.service->CreateLogFile(kReservedSystemRoot).status());
    ASSERT_OK(fx.service->CreateLogFile(kTelemetryJournalPath).status());
  }
};

TEST(TelemetrySampler, JournalsDeltasReadableByReplay) {
  JournalFixture jf;
  jf.CreateJournal();
  Counter* work = jf.registry->counter("test.work");

  TelemetrySamplerOptions options;
  options.registry = jf.registry.get();
  TelemetrySampler sampler(jf.AppendFn(), options);
  EXPECT_NE(sampler.boot_id(), 0u);

  ASSERT_OK(sampler.SampleOnce().status());
  for (int i = 0; i < 25; ++i) {
    work->Increment();
  }
  ASSERT_OK_AND_ASSIGN(TelemetryRecord second, sampler.SampleOnce());
  EXPECT_EQ(second.sequence, 2u);
  EXPECT_GT(second.window_us, 0u);

  TelemetryReplay replay;
  ASSERT_OK_AND_ASSIGN(auto reader,
                       jf.fx.service->OpenReader(kTelemetryJournalPath));
  reader->SeekToStart();
  for (;;) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    if (!record.has_value()) {
      break;
    }
    replay.Feed(static_cast<uint64_t>(record->timestamp), record->payload);
  }
  ASSERT_EQ(replay.points().size(), 2u);
  EXPECT_EQ(replay.points()[1].counter_deltas.at("test.work"), 25u);
  EXPECT_GT(replay.points()[1].rates.at("test.work"), 0.0);
  EXPECT_TRUE(replay.annotations().empty());
}

TEST(TelemetrySampler, FailedAppendBecomesASequenceGap) {
  JournalFixture jf;
  jf.CreateJournal();
  Counter* work = jf.registry->counter("test.gap_work");
  bool fail_next = false;
  auto inner = jf.AppendFn();
  TelemetrySamplerOptions options;
  options.registry = jf.registry.get();
  TelemetrySampler sampler(
      [&](std::span<const std::byte> record) -> Status {
        if (fail_next) {
          return Unavailable("injected journal outage");
        }
        return inner(record);
      },
      options);

  ASSERT_OK(sampler.SampleOnce().status());
  work->Increment();
  fail_next = true;
  EXPECT_FALSE(sampler.SampleOnce().ok());
  fail_next = false;
  work->Increment();
  ASSERT_OK(sampler.SampleOnce().status());

  TelemetryReplay replay;
  ASSERT_OK_AND_ASSIGN(auto reader,
                       jf.fx.service->OpenReader(kTelemetryJournalPath));
  reader->SeekToStart();
  for (;;) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    if (!record.has_value()) {
      break;
    }
    replay.Feed(static_cast<uint64_t>(record->timestamp), record->payload);
  }
  ASSERT_EQ(replay.points().size(), 2u);
  ASSERT_EQ(replay.annotations().size(), 1u);
  EXPECT_EQ(replay.annotations()[0].kind, "gap");
  // The failed tick still advanced the baseline: only the second
  // increment lands in the post-gap point, not a double-counted replay.
  EXPECT_EQ(replay.points()[1].counter_deltas.at("test.gap_work"), 1u);
}

// ---------------------------------------------------------------------------
// Wire integration: /.sys guard, HEALTH op, exemplars

class TelemetryWireTest : public ::testing::Test {
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
    SlowRequestRing::Instance().ResetForTest();
  }

  ServiceFixture fx_;
  std::unique_ptr<NetLogServer> server_;
};

TEST_F(TelemetryWireTest, ReservedNamespaceRejectsClientWrites) {
  NetLogServerOptions options;
  options.telemetry = true;
  options.telemetry_options.sample_interval_ms = 50;
  StartServer(options);
  auto client = Client();

  auto created = client->CreateLogFile("/.sys/mine");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kPermissionDenied);
  EXPECT_FALSE(client->CreateLogFile("/.sys").ok());

  auto appended =
      client->Append(std::string(kTelemetryJournalPath), AsBytes("spoof"),
                     /*force=*/false);
  ASSERT_FALSE(appended.ok());
  EXPECT_EQ(appended.status().code(), StatusCode::kPermissionDenied);

  // Reads stay open: the journal is how cliotrace --history works on a
  // mounted volume. The sampler has created it by Boot time.
  ASSERT_OK_AND_ASSIGN(uint64_t handle,
                       client->OpenReader(kTelemetryJournalPath));
  ASSERT_OK(client->CloseReader(handle));

  // Non-reserved paths are untouched by the guard.
  ASSERT_OK(client->CreateLogFile("/user").status());
  ASSERT_OK(
      client->Append("/user", AsBytes("fine"), /*force=*/true).status());
}

TEST_F(TelemetryWireTest, HealthReportsDegradedOnQuarantineWhileAppendsWork) {
  StartServer();
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/a").status());
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(client->Append("/a", AsBytes("payload"), true).status());
  }

  ASSERT_OK_AND_ASSIGN(HealthReport before, client->GetHealth());
  for (const auto& r : before.reasons) {
    EXPECT_NE(r.rule, "scrub-quarantine") << r.metric;
  }

  ASSERT_OK(fx_.service->QuarantineBlock(0, 3));
  ASSERT_OK_AND_ASSIGN(HealthReport after, client->GetHealth());
  EXPECT_EQ(after.state, HealthState::kDegraded);
  bool quarantine_reason = false;
  for (const auto& r : after.reasons) {
    quarantine_reason |= r.rule == "scrub-quarantine" &&
                         r.severity == HealthState::kDegraded;
  }
  EXPECT_TRUE(quarantine_reason) << after.ToJson();
  // Degraded, not down: appends keep landing around the quarantined block.
  ASSERT_OK(client->Append("/a", AsBytes("still-alive"), true).status());
}

TEST_F(TelemetryWireTest, SlowRequestExemplarsCarryTraceIdsOverTheWire) {
  SlowRequestRing::Instance().ResetForTest();
  NetLogServerOptions options;
  // A 0us degraded ceiling makes every append over-SLO, so the ring
  // captures each one with its trace id (threshold clamps to 1us).
  for (auto& rule : options.slo.rules) {
    if (rule.metric == "clio.rpc.append_us") {
      rule.degraded_above = 0;
    }
  }
  StartServer(options);
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/slow").status());
  ASSERT_OK(client->Append("/slow", AsBytes("captured"), true).status());
  const uint64_t append_trace = client->last_trace_id();
  ASSERT_NE(append_trace, 0u);

  ASSERT_OK_AND_ASSIGN(HealthReport report, client->GetHealth());
  bool found = false;
  for (const auto& exemplar : report.exemplars) {
    if (exemplar.trace_id == append_trace) {
      found = true;
      EXPECT_EQ(exemplar.op, "append");
      EXPECT_GT(exemplar.total_us, 0u);
    }
  }
  EXPECT_TRUE(found)
      << "the over-SLO append's trace id should surface as an exemplar";

  // The exemplar's id keys into the flight recorder: the bridge from a
  // health reason to the per-stage latency breakdown.
  ASSERT_OK_AND_ASSIGN(auto dump, client->DumpTraces());
  bool traced = false;
  for (const auto& span : dump.spans) {
    traced |= span.trace_id == append_trace;
  }
  EXPECT_TRUE(traced);
}

TEST_F(TelemetryWireTest, StatsCarriesProcessGaugesAndTailPercentiles) {
  StartServer();
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/g").status());
  ASSERT_OK(client->Append("/g", AsBytes("x"), true).status());
  ASSERT_OK_AND_ASSIGN(StatsSnapshot stats, client->GetStats());
  EXPECT_GT(stats.gauge("clio.process.sampled_at_us"), 0);
  EXPECT_GT(stats.gauge("clio.process.open_fds"), 0);
  EXPECT_GT(stats.gauge("clio.process.rss_bytes"), 0);
  auto hist = stats.histogram("clio.rpc.append_us");
  ASSERT_TRUE(hist.has_value());
  EXPECT_GE(hist->p999(), hist->p99());
  EXPECT_GE(hist->p99(), hist->p50());
  const std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

TEST_F(TelemetryWireTest, SamplerJournalsWhileServingAndStopFlushes) {
  NetLogServerOptions options;
  options.telemetry = true;
  options.telemetry_options.sample_interval_ms = 20;
  StartServer(options);
  ASSERT_NE(server_->sampler(), nullptr);
  const uint64_t boot_id = server_->sampler()->boot_id();
  auto client = Client();
  ASSERT_OK(client->CreateLogFile("/traffic").status());
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(client->Append("/traffic", AsBytes("tick"), true).status());
  }
  server_->Stop();  // final flush lands the closing record

  TelemetryReplay replay;
  ASSERT_OK_AND_ASSIGN(auto reader,
                       fx_.service->OpenReader(kTelemetryJournalPath));
  reader->SeekToStart();
  for (;;) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    if (!record.has_value()) {
      break;
    }
    replay.Feed(static_cast<uint64_t>(record->timestamp), record->payload);
  }
  ASSERT_GE(replay.points().size(), 1u);
  for (const auto& point : replay.points()) {
    EXPECT_EQ(point.boot_id, boot_id);
  }
  EXPECT_EQ(replay.records_skipped(), 0u);
  server_.reset();
}

// ---------------------------------------------------------------------------
// Chaos: the journal must span kill/restart incarnations, chain-verified

TEST(TelemetryChaos, JournalSurvivesKillRestartWithAnnotatedSeam) {
  MemoryWormOptions dev;
  dev.block_size = 1024;
  dev.capacity_blocks = 8192;
  MemoryWormDevice media(dev);
  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;

  const int rounds = testing::ChaosIterations(24) >= 240 ? 4 : 2;
  std::vector<uint64_t> boots;
  for (int round = 0; round < rounds; ++round) {
    std::unique_ptr<LogService> service;
    if (round == 0) {
      ASSERT_OK_AND_ASSIGN(
          service,
          LogService::Create(std::make_unique<BorrowedDevice>(&media),
                             &clock, options));
      ASSERT_OK(service->CreateLogFile(kReservedSystemRoot).status());
      ASSERT_OK(service->CreateLogFile(kTelemetryJournalPath).status());
      ASSERT_OK(service->CreateLogFile("/work").status());
    } else {
      std::vector<std::unique_ptr<WormDevice>> devices;
      devices.push_back(std::make_unique<BorrowedDevice>(&media));
      ASSERT_OK_AND_ASSIGN(service,
                           LogService::Recover(std::move(devices), &clock,
                                               options, nullptr));
      // The journal already exists on the recovered volume — the create
      // path every incarnation runs must tolerate that.
      auto again = service->CreateLogFile(kTelemetryJournalPath);
      ASSERT_FALSE(again.ok());
      EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
    }
    ASSERT_OK(
        service->CreateLogFile("/work/" + std::to_string(round)).status());

    auto registry = std::make_unique<MetricsRegistry>();
    Counter* work = registry->counter("chaos.work");
    TelemetrySamplerOptions sampler_options;
    sampler_options.registry = registry.get();
    TelemetrySampler sampler(
        [&](std::span<const std::byte> record) -> Status {
          WriteOptions write;
          write.timestamped = true;
          return service->Append(kTelemetryJournalPath, record, write)
              .status();
        },
        sampler_options);
    boots.push_back(sampler.boot_id());

    Rng rng(round + 77);
    WriteOptions forced;
    forced.force = true;
    for (int tick = 0; tick < 3; ++tick) {
      for (int i = 0; i < 8; ++i) {
        work->Increment();
        ASSERT_OK(service
                      ->Append("/work/" + std::to_string(round),
                               RandomPayload(&rng, 64), forced)
                      .status());
      }
      ASSERT_OK(sampler.SampleOnce().status());
    }
    ASSERT_OK(service->Force());
    // Kill: the service object dies with no clean shutdown; the media
    // and the journal entries already forced onto it survive.
  }

  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::make_unique<BorrowedDevice>(&media));
  ASSERT_OK_AND_ASSIGN(
      auto service,
      LogService::Recover(std::move(devices), &clock, options, nullptr));

  // Chain verification sees telemetry records as ordinary entries.
  for (size_t v = 0; v < service->volume_count(); ++v) {
    ASSERT_OK_AND_ASSIGN(VerifyReport report,
                         VerifyVolume(service->volume(v)));
    EXPECT_TRUE(report.clean()) << "volume " << v;
    EXPECT_GT(report.entries_total, 0u);
  }

  TelemetryReplay replay;
  ASSERT_OK_AND_ASSIGN(auto reader,
                       service->OpenReader(kTelemetryJournalPath));
  reader->SeekToStart();
  for (;;) {
    ASSERT_OK_AND_ASSIGN(auto record, reader->Next());
    if (!record.has_value()) {
      break;
    }
    replay.Feed(static_cast<uint64_t>(record->timestamp), record->payload);
  }

  ASSERT_EQ(replay.points().size(), static_cast<size_t>(rounds) * 3);
  EXPECT_EQ(replay.records_skipped(), 0u);
  size_t restarts = 0;
  for (const auto& a : replay.annotations()) {
    restarts += a.kind == "restart";
  }
  EXPECT_EQ(restarts, static_cast<size_t>(rounds) - 1)
      << "one seam per incarnation boundary";
  // Every incarnation's boot id appears, in order, and the per-round
  // counter deltas replay exactly (8 increments per point after each
  // boot's baseline tick).
  std::vector<uint64_t> seen;
  for (const auto& point : replay.points()) {
    if (seen.empty() || seen.back() != point.boot_id) {
      seen.push_back(point.boot_id);
    }
  }
  EXPECT_EQ(seen, boots);
  for (size_t i = 0; i < replay.points().size(); ++i) {
    if (i % 3 != 0) {  // non-baseline ticks carry the 8-increment delta
      EXPECT_EQ(replay.points()[i].counter_deltas.at("chaos.work"), 8u)
          << "point " << i;
    }
  }
}

}  // namespace
}  // namespace clio
