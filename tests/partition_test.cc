// Partitioned volume sequences: routing, namespace mirroring, the
// merge-by-timestamp reader, recovery, the partitioned net server, and
// per-partition metric lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/device/memory_worm_device.h"
#include "src/device/nvram_tail.h"
#include "src/util/bytes.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/partition/partition_router.h"
#include "src/partition/partitioned_service.h"
#include "tests/test_util.h"

namespace clio {
namespace {


// ---------------------------------------------------------------------------
// Router (unit)

TEST(PartitionRouter, HashRouteIsDeterministicAndInRange) {
  PartitionRouter router(4);
  for (const char* path : {"/a", "/b", "/mail/smith", "/x/y/z"}) {
    uint32_t first = router.HashRoute(path);
    EXPECT_LT(first, 4u);
    EXPECT_EQ(router.HashRoute(path), first);
  }
  // Distinct paths spread (FNV-1a over 4 buckets: these four don't all
  // collide — a regression here means the hash degenerated).
  std::vector<uint32_t> routes;
  for (const char* path : {"/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"}) {
    routes.push_back(router.HashRoute(path));
  }
  EXPECT_GT(std::set<uint32_t>(routes.begin(), routes.end()).size(), 1u);
}

TEST(PartitionRouter, LearnIsIdempotentButConflictsAreCorrupt) {
  PartitionRouter router(2);
  EXPECT_FALSE(router.Lookup("/a").has_value());
  ASSERT_OK(router.Learn("/a", 1));
  ASSERT_OK(router.Learn("/a", 1));  // same home: fine
  EXPECT_EQ(router.Lookup("/a"), std::optional<uint32_t>(1));
  EXPECT_EQ(router.Learn("/a", 0).code(), StatusCode::kCorrupt);
  EXPECT_EQ(router.Learn("/b", 2).code(), StatusCode::kCorrupt);  // range
  router.Forget("/a");
  EXPECT_FALSE(router.Lookup("/a").has_value());
  ASSERT_OK(router.Learn("/a", 0));  // re-learnable after Forget
}

// ---------------------------------------------------------------------------
// Partitioned service fixture

struct PartitionedFixture {
  std::unique_ptr<SimulatedClock> clock;
  // The media outlive the service ("the jukebox"), so tests can crash the
  // service (destroy it) and recover from the same platters.
  std::vector<std::unique_ptr<MemoryWormDevice>> media;
  std::unique_ptr<PartitionedLogService> service;

  static PartitionedFixture Make(uint32_t partitions,
                                 uint64_t capacity_blocks = 4096) {
    PartitionedFixture fx;
    fx.clock = std::make_unique<SimulatedClock>(1'000'000, /*auto_tick=*/7);
    MemoryWormOptions dev_options;
    dev_options.block_size = 1024;
    dev_options.capacity_blocks = capacity_blocks;
    std::vector<std::unique_ptr<WormDevice>> devices;
    for (uint32_t p = 0; p < partitions; ++p) {
      fx.media.push_back(std::make_unique<MemoryWormDevice>(dev_options));
      devices.push_back(std::make_unique<BorrowedDevice>(fx.media[p].get()));
    }
    auto service = PartitionedLogService::Create(std::move(devices),
                                                 fx.clock.get(), {});
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    fx.service = std::move(service).value();
    return fx;
  }

  // Crash: drop the service; the media keep the burned blocks.
  void Crash() { service.reset(); }

  Result<std::unique_ptr<PartitionedLogService>> Recover(
      std::vector<RecoveryReport>* reports = nullptr) {
    std::vector<std::vector<std::unique_ptr<WormDevice>>> chains;
    for (auto& m : media) {
      std::vector<std::unique_ptr<WormDevice>> chain;
      chain.push_back(std::make_unique<BorrowedDevice>(m.get()));
      chains.push_back(std::move(chain));
    }
    return PartitionedLogService::Recover(std::move(chains), clock.get(), {},
                                          reports);
  }
};

// ---------------------------------------------------------------------------
// Creation, placement, routing

TEST(PartitionedService, PlacementIsHonoredAndPersisted) {
  auto fx = PartitionedFixture::Make(4);
  ASSERT_OK_AND_ASSIGN(uint32_t home,
                       fx.service->CreateLogFile("/pinned", 0644, 2));
  EXPECT_EQ(home, 2u);
  EXPECT_EQ(fx.service->RouteOf("/pinned"), std::optional<uint32_t>(2));
  // The leaf exists only on its home partition.
  EXPECT_OK(fx.service->partition(2)->Resolve("/pinned").status());
  EXPECT_EQ(fx.service->partition(0)->Resolve("/pinned").status().code(),
            StatusCode::kNotFound);
  // Its catalog record carries the home id.
  ASSERT_OK_AND_ASSIGN(LogFileInfo info, fx.service->Stat("/pinned"));
  EXPECT_EQ(info.home_partition, 2u);
}

TEST(PartitionedService, DefaultPlacementHashesThePath) {
  auto fx = PartitionedFixture::Make(4);
  PartitionRouter reference(4);
  for (const char* path : {"/a", "/b", "/c", "/d"}) {
    ASSERT_OK_AND_ASSIGN(uint32_t home, fx.service->CreateLogFile(path));
    EXPECT_EQ(home, reference.HashRoute(path)) << path;
  }
}

TEST(PartitionedService, CreateErrors) {
  auto fx = PartitionedFixture::Make(2);
  ASSERT_OK(fx.service->CreateLogFile("/a", 0644, 1).status());
  // Duplicate create.
  EXPECT_EQ(fx.service->CreateLogFile("/a").status().code(),
            StatusCode::kAlreadyExists);
  // Duplicate create demanding a different home.
  EXPECT_EQ(fx.service->CreateLogFile("/a", 0644, 0).status().code(),
            StatusCode::kFailedPrecondition);
  // Placement out of range.
  EXPECT_EQ(fx.service->CreateLogFile("/b", 0644, 2).status().code(),
            StatusCode::kInvalidArgument);
  // Missing intermediate component.
  EXPECT_EQ(fx.service->CreateLogFile("/no/such").status().code(),
            StatusCode::kNotFound);
  // Root always exists.
  EXPECT_EQ(fx.service->CreateLogFile("/").status().code(),
            StatusCode::kAlreadyExists);
}

TEST(PartitionedService, AncestorsMirrorOntoTheLeafHome) {
  auto fx = PartitionedFixture::Make(2);
  ASSERT_OK(fx.service->CreateLogFile("/mail", 0640, 0).status());
  // The sublog lands on partition 1, pulling a mirror of "/mail" with it.
  ASSERT_OK_AND_ASSIGN(uint32_t home,
                       fx.service->CreateLogFile("/mail/b", 0644, 1));
  EXPECT_EQ(home, 1u);
  ASSERT_OK_AND_ASSIGN(LogFileInfo mirror,
                       fx.service->partition(1)->Stat("/mail"));
  EXPECT_EQ(mirror.permissions, 0640u);
  // The mirror records the ORIGINAL home, so the router stays unanimous.
  EXPECT_EQ(mirror.home_partition, 0u);
  EXPECT_EQ(fx.service->RouteOf("/mail"), std::optional<uint32_t>(0));
}

TEST(PartitionedService, AppendsRouteToTheHomePartition) {
  auto fx = PartitionedFixture::Make(2);
  ASSERT_OK(fx.service->CreateLogFile("/left", 0644, 0).status());
  ASSERT_OK(fx.service->CreateLogFile("/right", 0644, 1).status());
  WriteOptions timestamped;
  timestamped.timestamped = true;
  ASSERT_OK(
      fx.service->Append("/left", AsBytes("L"), timestamped).status());
  ASSERT_OK(
      fx.service->Append("/right", AsBytes("R"), timestamped).status());
  // Each partition's own reader sees exactly its entry.
  for (auto [path, p, payload] :
       {std::tuple{"/left", 0, "L"}, std::tuple{"/right", 1, "R"}}) {
    ASSERT_OK_AND_ASSIGN(auto reader,
                         fx.service->partition(p)->OpenReader(path));
    ASSERT_OK_AND_ASSIGN(auto entry, reader->Next());
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(ToString(entry->payload), payload);
    ASSERT_OK_AND_ASSIGN(auto end, reader->Next());
    EXPECT_FALSE(end.has_value());
  }
}

// ---------------------------------------------------------------------------
// Merged reader

TEST(PartitionedReader, MergesByTimestampAcrossPartitions) {
  auto fx = PartitionedFixture::Make(2);
  ASSERT_OK(fx.service->CreateLogFile("/mail", 0644, 0).status());
  ASSERT_OK(fx.service->CreateLogFile("/mail/a", 0644, 0).status());
  ASSERT_OK(fx.service->CreateLogFile("/mail/b", 0644, 1).status());
  WriteOptions timestamped;
  timestamped.timestamped = true;
  // Alternate partitions so the merged order != any single partition's.
  std::vector<std::string> expect;
  for (int i = 0; i < 10; ++i) {
    std::string payload = "m" + std::to_string(i);
    ASSERT_OK(fx.service
                  ->Append(i % 2 == 0 ? "/mail/a" : "/mail/b",
                           AsBytes(payload), timestamped)
                  .status());
    expect.push_back(payload);
  }
  ASSERT_OK_AND_ASSIGN(auto reader, fx.service->OpenReader("/mail"));
  EXPECT_EQ(reader->source_count(), 2u);
  Timestamp last = 0;
  for (const std::string& want : expect) {
    ASSERT_OK_AND_ASSIGN(auto entry, reader->Next());
    ASSERT_TRUE(entry.has_value()) << want;
    EXPECT_EQ(ToString(entry->payload), want);
    EXPECT_GT(entry->timestamp, last);
    last = entry->timestamp;
  }
  ASSERT_OK_AND_ASSIGN(auto end, reader->Next());
  EXPECT_FALSE(end.has_value());
  // And the mirror image backwards.
  for (auto it = expect.rbegin(); it != expect.rend(); ++it) {
    ASSERT_OK_AND_ASSIGN(auto entry, reader->Prev());
    ASSERT_TRUE(entry.has_value()) << *it;
    EXPECT_EQ(ToString(entry->payload), *it);
  }
  ASSERT_OK_AND_ASSIGN(auto start, reader->Prev());
  EXPECT_FALSE(start.has_value());
}

TEST(PartitionedReader, GapSemanticsSurviveTheMerge) {
  auto fx = PartitionedFixture::Make(2);
  ASSERT_OK(fx.service->CreateLogFile("/a", 0644, 0).status());
  ASSERT_OK(fx.service->CreateLogFile("/b", 0644, 1).status());
  WriteOptions timestamped;
  timestamped.timestamped = true;
  for (int i = 0; i < 6; ++i) {
    ASSERT_OK(fx.service
                  ->Append(i % 2 == 0 ? "/a" : "/b",
                           AsBytes("e" + std::to_string(i)), timestamped)
                  .status());
  }
  // "/" spans both partitions: the root log file is the whole deployment.
  ASSERT_OK_AND_ASSIGN(auto reader, fx.service->OpenReader("/"));
  ASSERT_OK_AND_ASSIGN(auto e0, reader->Next());
  ASSERT_OK_AND_ASSIGN(auto e1, reader->Next());
  ASSERT_TRUE(e1.has_value());
  // Prev after Next returns the same entry (the cursor gap model).
  ASSERT_OK_AND_ASSIGN(auto again, reader->Prev());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(ToString(again->payload), ToString(e1->payload));
  ASSERT_OK_AND_ASSIGN(auto back, reader->Prev());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(ToString(back->payload), ToString(e0->payload));
}

TEST(PartitionedReader, SeeksAndPointLookupsFanOut) {
  auto fx = PartitionedFixture::Make(2);
  ASSERT_OK(fx.service->CreateLogFile("/a", 0644, 0).status());
  ASSERT_OK(fx.service->CreateLogFile("/b", 0644, 1).status());
  WriteOptions timestamped;
  timestamped.timestamped = true;
  std::vector<Timestamp> stamps;
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(
        AppendResult r,
        fx.service->Append(i % 2 == 0 ? "/a" : "/b",
                           AsBytes("s" + std::to_string(i)), timestamped));
    stamps.push_back(r.timestamp);
  }
  ASSERT_OK_AND_ASSIGN(auto reader, fx.service->OpenReader("/"));
  // SeekToTime positions so Next yields the first entry after t.
  ASSERT_OK(reader->SeekToTime(stamps[3]));
  ASSERT_OK_AND_ASSIGN(auto after, reader->Next());
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(ToString(after->payload), "s4");
  // ...and Prev the last entry at or before t.
  ASSERT_OK(reader->SeekToTime(stamps[3]));
  ASSERT_OK_AND_ASSIGN(auto before, reader->Prev());
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(ToString(before->payload), "s3");
  // Exact-timestamp lookup hits whichever partition holds the entry.
  for (int i : {0, 1, 6, 7}) {
    ASSERT_OK_AND_ASSIGN(auto found, reader->FindByTimestamp(stamps[i]));
    ASSERT_TRUE(found.has_value()) << i;
    EXPECT_EQ(ToString(found->payload), "s" + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Recovery

TEST(PartitionedService, RecoveryRebuildsRoutesAndData) {
  auto fx = PartitionedFixture::Make(3);
  ASSERT_OK(fx.service->CreateLogFile("/mail", 0644, 0).status());
  ASSERT_OK(fx.service->CreateLogFile("/mail/a", 0644, 1).status());
  ASSERT_OK(fx.service->CreateLogFile("/solo", 0644, 2).status());
  WriteOptions timestamped;
  timestamped.timestamped = true;
  ASSERT_OK(fx.service->Append("/mail/a", AsBytes("one"), timestamped)
                .status());
  ASSERT_OK(
      fx.service->Append("/solo", AsBytes("two"), timestamped).status());
  ASSERT_OK(fx.service->Force());
  fx.Crash();

  std::vector<RecoveryReport> reports;
  const StatsSnapshot before = ObsRegistry().Snapshot();
  ASSERT_OK_AND_ASSIGN(auto recovered, fx.Recover(&reports));
  EXPECT_EQ(reports.size(), 3u);
  // Each partition's restart passes record once, into its own lane.
  const StatsSnapshot after = ObsRegistry().Snapshot();
  for (uint32_t p = 0; p < reports.size(); ++p) {
    const std::string lane = LaneMetricName("clio.recovery.device_passes", p);
    EXPECT_GT(reports[p].device_passes.total(), 0u);
    EXPECT_EQ(after.counter(lane) - before.counter(lane),
              reports[p].device_passes.total())
        << lane;
  }
  // Routes come back from the catalogs — including the mirrored ancestor's
  // original home.
  EXPECT_EQ(recovered->RouteOf("/mail"), std::optional<uint32_t>(0));
  EXPECT_EQ(recovered->RouteOf("/mail/a"), std::optional<uint32_t>(1));
  EXPECT_EQ(recovered->RouteOf("/solo"), std::optional<uint32_t>(2));
  // Data survives and still merges. "/" also carries system records
  // (catalog creates are members of the volume sequence log), so assert on
  // the ordered data subsequence.
  ASSERT_OK_AND_ASSIGN(auto reader, recovered->OpenReader("/"));
  EXPECT_EQ(reader->source_count(), 3u);
  std::vector<std::string> payloads;
  for (;;) {
    ASSERT_OK_AND_ASSIGN(auto entry, reader->Next());
    if (!entry.has_value()) {
      break;
    }
    std::string payload = ToString(entry->payload);
    if (payload == "one" || payload == "two") {
      payloads.push_back(std::move(payload));
    }
  }
  EXPECT_EQ(payloads, (std::vector<std::string>{"one", "two"}));
  // Appends after recovery still route to the persisted home.
  ASSERT_OK_AND_ASSIGN(
      AppendResult post,
      recovered->Append("/mail/a", AsBytes("three"), timestamped));
  EXPECT_GT(post.timestamp, 0u);
  ASSERT_OK_AND_ASSIGN(auto p1_reader,
                       recovered->partition(1)->OpenReader("/mail/a"));
  p1_reader->SeekToEnd();
  ASSERT_OK_AND_ASSIGN(auto last, p1_reader->Prev());
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(ToString(last->payload), "three");
}

TEST(PartitionedService, RecoveryRejectsTheSameChainMountedTwice) {
  auto fx = PartitionedFixture::Make(2);
  ASSERT_OK(fx.service->Force());
  fx.Crash();
  // Mount partition 0's media as BOTH chains.
  std::vector<std::vector<std::unique_ptr<WormDevice>>> chains;
  for (int i = 0; i < 2; ++i) {
    std::vector<std::unique_ptr<WormDevice>> chain;
    chain.push_back(std::make_unique<BorrowedDevice>(fx.media[0].get()));
    chains.push_back(std::move(chain));
  }
  auto recovered = PartitionedLogService::Recover(std::move(chains),
                                                  fx.clock.get(), {}, nullptr);
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorrupt);
}

// ---------------------------------------------------------------------------
// A volume written by a plain LogService recovers as partition 0

// Every answer a client gets about `paths` from the server on `port`,
// rendered one line per answer, plus a verified inclusion proof of the
// entry of `proven_path` at `proven_ts`.
std::vector<std::string> ProbeServer(uint16_t port,
                                     const std::vector<std::string>& paths,
                                     const std::string& proven_path,
                                     Timestamp proven_ts) {
  std::vector<std::string> out;
  auto client = NetLogClient::Connect(port);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  if (!client.ok()) {
    return out;
  }
  auto render = [](const Status& status) { return status.ToString(); };
  auto topology = (*client)->GetPartitionInfo();
  out.push_back("topology " + (topology.ok()
                                   ? std::to_string(topology->partition_count)
                                   : render(topology.status())));
  for (const std::string& path : paths) {
    auto where = (*client)->GetPartitionInfo(path);
    out.push_back(path + " partition " +
                  (!where.ok() ? render(where.status())
                   : where->partition.has_value()
                       ? std::to_string(*where->partition)
                       : std::string("none")));
    auto stat = (*client)->Stat(path);
    out.push_back(path + " stat " +
                  (stat.ok() ? std::to_string(stat->id) + " " +
                                   std::to_string(stat->unique_id) + " " +
                                   std::to_string(stat->parent) + " " +
                                   std::to_string(stat->permissions) + " " +
                                   std::to_string(stat->created_at) + " " +
                                   stat->name
                             : render(stat.status())));
    auto handle = (*client)->OpenReader(path);
    if (!handle.ok()) {
      out.push_back(path + " open " + render(handle.status()));
      continue;
    }
    auto batch = (*client)->ReadNextBatch(*handle, 1000);
    if (!batch.ok()) {
      out.push_back(path + " read " + render(batch.status()));
      continue;
    }
    for (const RemoteEntry& entry : batch->entries) {
      out.push_back(path + " entry " + std::to_string(entry.logfile_id) +
                    " " + std::to_string(entry.timestamp) + " " +
                    ToString(entry.payload));
    }
  }
  auto proven = (*client)->VerifyEntry(proven_path, proven_ts);
  out.push_back("proof " + (proven.ok() ? ToString(proven->payload)
                                        : render(proven.status())));
  return out;
}

TEST(PlainVolume, RecoversAsPartitionZero) {
  // The volume is written by a plain LogService, exactly as a standalone
  // deployment writes it: nested sublogs, an entry fragmented across
  // blocks, and NVRAM checkpoints.
  SimulatedClock clock(1'000'000, /*auto_tick=*/7);
  MemoryWormOptions dev;
  dev.block_size = 1024;
  dev.capacity_blocks = 4096;
  MemoryWormDevice media(dev);
  NvramTail nvram(dev.block_size);
  LogServiceOptions options;
  options.sequence_id = 0x9A11;
  options.nvram = &nvram;
  options.checkpoint_interval_blocks = 8;
  Rng rng(0x0A);
  const Bytes fragmented = testing::RandomPayload(&rng, 3000);
  Timestamp fragmented_ts = 0;
  {
    ASSERT_OK_AND_ASSIGN(
        auto service, LogService::Create(std::make_unique<BorrowedDevice>(&media),
                                         &clock, options));
    for (const char* path :
         {"/mail", "/mail/smith", "/mail/smith/inbox", "/audit"}) {
      ASSERT_OK(service->CreateLogFile(path).status());
    }
    WriteOptions timestamped;
    timestamped.timestamped = true;
    for (int i = 0; i < 120; ++i) {
      const char* path = i % 3 == 0   ? "/mail/smith/inbox"
                         : i % 3 == 1 ? "/mail/smith"
                                      : "/audit";
      ASSERT_OK(service
                    ->Append(path, testing::RandomPayload(&rng, 200),
                             timestamped)
                    .status());
    }
    ASSERT_OK_AND_ASSIGN(
        AppendResult appended,
        service->Append("/mail/smith/inbox", fragmented, timestamped));
    fragmented_ts = appended.timestamp;
    ASSERT_OK(service->Force());
  }  // crash: the media and the NVRAM survive

  const std::vector<std::string> paths = {
      "/", "/mail", "/mail/smith", "/mail/smith/inbox", "/audit", "/missing"};
  std::map<std::string, uint32_t> partition_routes;
  std::vector<std::string> as_partition;
  {
    std::vector<std::vector<std::unique_ptr<WormDevice>>> chains(1);
    chains[0].push_back(std::make_unique<BorrowedDevice>(&media));
    PartitionedServiceOptions partitioned;
    partitioned.lane_nvram = {&nvram};
    std::vector<RecoveryReport> reports;
    ASSERT_OK_AND_ASSIGN(auto service,
                         PartitionedLogService::Recover(
                             std::move(chains), &clock, partitioned, &reports));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports[0].restored_checkpoint);
    partition_routes = service->router().Routes();
    for (const char* path :
         {"/mail", "/mail/smith", "/mail/smith/inbox", "/audit"}) {
      EXPECT_EQ(service->RouteOf(path), std::optional<uint32_t>(0)) << path;
    }
    ASSERT_OK_AND_ASSIGN(auto server, NetLogServer::Start(service.get()));
    as_partition =
        ProbeServer(server->port(), paths, "/mail/smith/inbox", fragmented_ts);
    server->Stop();
  }
  std::vector<std::string> as_plain;
  {
    std::vector<std::unique_ptr<WormDevice>> devices;
    devices.push_back(std::make_unique<BorrowedDevice>(&media));
    ASSERT_OK_AND_ASSIGN(auto service,
                         LogService::Recover(std::move(devices), &clock,
                                             options, nullptr));
    ASSERT_OK_AND_ASSIGN(auto view, PartitionedLogService::Wrap(service.get()));
    EXPECT_EQ(view->router().Routes(), partition_routes);
    ASSERT_OK_AND_ASSIGN(auto server, NetLogServer::Start(service.get()));
    as_plain =
        ProbeServer(server->port(), paths, "/mail/smith/inbox", fragmented_ts);
    server->Stop();
  }
  EXPECT_EQ(as_partition, as_plain);
  // The answers carry the volume's content, not two matching errors: the
  // fragmented entry reads back whole, and its proof (which covers the
  // entry's record in its first block) verifies.
  const std::string whole = ToString(fragmented);
  EXPECT_TRUE(std::any_of(as_partition.begin(), as_partition.end(),
                          [&](const std::string& line) {
                            return line.size() > whole.size() &&
                                   line.compare(line.size() - whole.size(),
                                                whole.size(), whole) == 0;
                          }));
  const std::string proof = as_partition.back();
  ASSERT_EQ(proof.rfind("proof ", 0), 0u);
  EXPECT_EQ(whole.rfind(proof.substr(6), 0), 0u) << proof;
  EXPECT_EQ(partition_routes.size(), 4u);
}

// A plain LogService served through NetLogServer::Start(LogService*) is a
// one-partition view: its per-partition metrics record into lane 0.
TEST(PlainVolume, ServedAloneRecordsIntoLaneZero) {
  testing::ServiceFixture fx = testing::ServiceFixture::Make();
  EXPECT_FALSE(fx.service->partition_index().has_value());
  ASSERT_OK_AND_ASSIGN(auto server, NetLogServer::Start(fx.service.get()));
  EXPECT_EQ(fx.service->partition_index(), std::optional<uint32_t>(0));
  auto lane_appends = [] {
    return ObsRegistry().Snapshot().counter("clio.volume.appends.p0");
  };
  const uint64_t before = lane_appends();
  ASSERT_OK_AND_ASSIGN(auto client, NetLogClient::Connect(server->port()));
  ASSERT_OK(client->CreateLogFile("/alone").status());
  for (int i = 0; i < 5; ++i) {
    ASSERT_OK(client->Append("/alone", AsBytes("a"), true).status());
  }
  EXPECT_GE(lane_appends() - before, 5u);
  server->Stop();
}

// ---------------------------------------------------------------------------
// Partitioned net server

class PartitionedNetTest : public ::testing::Test {
 protected:
  void StartServer(uint32_t partitions, NetLogServerOptions options = {}) {
    fx_ = PartitionedFixture::Make(partitions);
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

  PartitionedFixture fx_;
  std::unique_ptr<NetLogServer> server_;
};

TEST_F(PartitionedNetTest, PlacedCreateRoutedAppendsAndMergedReads) {
  StartServer(2);
  auto client = Client();
  ASSERT_OK_AND_ASSIGN(PartitionInfoResult info, client->GetPartitionInfo());
  EXPECT_EQ(info.partition_count, 2u);
  EXPECT_FALSE(info.partition.has_value());

  ASSERT_OK(client->CreateLogFilePlaced("/logs", 0644, 0).status());
  ASSERT_OK(client->CreateLogFilePlaced("/logs/left", 0644, 0).status());
  ASSERT_OK(client->CreateLogFilePlaced("/logs/right", 0644, 1).status());
  ASSERT_OK_AND_ASSIGN(PartitionInfoResult right,
                       client->GetPartitionInfo("/logs/right"));
  EXPECT_EQ(right.partition, std::optional<uint32_t>(1));

  ASSERT_OK_AND_ASSIGN(Timestamp t0,
                       client->Append("/logs/left", AsBytes("L0"), true));
  ASSERT_OK_AND_ASSIGN(Timestamp t1,
                       client->Append("/logs/right", AsBytes("R0"), true));
  ASSERT_OK_AND_ASSIGN(Timestamp t2,
                       client->Append("/logs/left", AsBytes("L1"), true));
  ASSERT_LT(t0, t1);
  ASSERT_LT(t1, t2);

  // A reader on the interior "/logs" merges both partitions in timestamp
  // order ("/" would too, but interleaved with catalog records — every
  // entry is a member of the volume sequence log).
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/logs"));
  ASSERT_OK(client->SeekToStart(handle));
  for (const char* want : {"L0", "R0", "L1"}) {
    ASSERT_OK_AND_ASSIGN(auto entry, client->ReadNext(handle));
    ASSERT_TRUE(entry.has_value()) << want;
    EXPECT_EQ(ToString(entry->payload), want);
  }
  ASSERT_OK_AND_ASSIGN(auto end, client->ReadNext(handle));
  EXPECT_FALSE(end.has_value());
  ASSERT_OK(client->CloseReader(handle));

  // Stat routes by path; a placement conflict surfaces over the wire.
  ASSERT_OK_AND_ASSIGN(LogFileInfo left, client->Stat("/logs/left"));
  EXPECT_EQ(left.home_partition, 0u);
  EXPECT_EQ(
      client->CreateLogFilePlaced("/logs/left", 0644, 1).status().code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(client->CreateLogFilePlaced("/new", 0644, 9).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(PartitionedNetTest, LanesBatchIndependently) {
  StartServer(2);
  auto client = Client();
  ASSERT_OK(client->CreateLogFilePlaced("/only-left", 0644, 0).status());
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK(client
                  ->Append("/only-left", AsBytes("x"), /*timestamped=*/true,
                           /*force=*/true)
                  .status());
  }
  // All commits went through lane 0's batcher; lane 1 stayed idle.
  EXPECT_EQ(server_->lane_count(), 2u);
  EXPECT_GE(server_->batcher(0)->entries_committed(), 8u);
  EXPECT_EQ(server_->batcher(1)->entries_committed(), 0u);
}

TEST_F(PartitionedNetTest, SinglePartitionDeploymentBehavesLikeClassic) {
  StartServer(1);
  auto client = Client();
  ASSERT_OK_AND_ASSIGN(PartitionInfoResult info, client->GetPartitionInfo());
  EXPECT_EQ(info.partition_count, 1u);
  ASSERT_OK(client->CreateLogFile("/plain").status());
  ASSERT_OK(client->Append("/plain", AsBytes("p"), true).status());
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/plain"));
  ASSERT_OK_AND_ASSIGN(auto entry, client->ReadNext(handle));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(ToString(entry->payload), "p");
}

// Each per-partition metric is recorded once, into its lane, and the
// aggregate is the lanes' fold: over creates, reads and appends (one of
// them rejected), every `.p<i>` family's deltas sum to the bare delta —
// nothing counts in a lane but not the total, or in the total but no lane.
TEST_F(PartitionedNetTest, LaneDeltasSumToTheAggregateDelta) {
  StartServer(4);
  const StatsSnapshot before = ObsRegistry().Snapshot();
  auto client = Client();
  for (uint32_t p = 0; p < 4; ++p) {
    ASSERT_OK(client->CreateLogFilePlaced("/lane" + std::to_string(p), 0644, p)
                  .status());
  }
  ASSERT_OK(client->CreateLogFilePlaced("/readonly", 0444, 2).status());
  for (int i = 0; i < 16; ++i) {
    ASSERT_OK(client
                  ->Append("/lane" + std::to_string(i % 4), AsBytes("x"),
                           /*timestamped=*/true, /*force=*/i % 2 == 0)
                  .status());
  }
  EXPECT_EQ(client->Append("/readonly", AsBytes("no"), true).status().code(),
            StatusCode::kPermissionDenied);
  ASSERT_OK_AND_ASSIGN(uint64_t handle, client->OpenReader("/lane1"));
  ASSERT_OK(client->SeekToStart(handle));
  ASSERT_OK(client->ReadNext(handle).status());
  ASSERT_OK(client->CloseReader(handle));
  const StatsSnapshot after = ObsRegistry().Snapshot();

  std::map<std::string, uint64_t> counter_lanes;
  for (const auto& [name, value] : after.counters) {
    if (auto lane = ParseLaneMetricName(name)) {
      counter_lanes[std::string(lane->base)] += value - before.counter(name);
    }
  }
  auto hist_count = [](const StatsSnapshot& s, const std::string& name) {
    auto h = s.histogram(name);
    return h.has_value() ? h->count : 0;
  };
  std::map<std::string, uint64_t> histogram_lanes;
  for (const auto& [name, hist] : after.histograms) {
    if (auto lane = ParseLaneMetricName(name)) {
      histogram_lanes[std::string(lane->base)] +=
          hist.count - hist_count(before, name);
    }
  }
  for (const char* family : {"clio.volume.appends", "clio.volume.append_bytes",
                             "clio.index.hits", "clio.net.batch.appends"}) {
    EXPECT_TRUE(counter_lanes.count(family)) << family;
  }
  EXPECT_GT(counter_lanes["clio.volume.appends"], 16u);  // + catalog records
  for (const auto& [base, lanes] : counter_lanes) {
    EXPECT_EQ(lanes, after.counter(base) - before.counter(base)) << base;
  }
  EXPECT_TRUE(histogram_lanes.count("clio.volume.append_us"));
  for (const auto& [base, lanes] : histogram_lanes) {
    EXPECT_EQ(lanes, hist_count(after, base) - hist_count(before, base))
        << base;
  }
}

}  // namespace
}  // namespace clio
