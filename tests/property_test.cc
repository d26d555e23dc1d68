// Property-based tests: randomized workloads swept over the service's
// parameter space with parameterized gtest. Invariants checked:
//
//  P1  every appended entry is returned, in order, by a forward scan;
//  P2  a backward scan returns exactly the reverse;
//  P3  entries located via the entrymap tree from far away equal those
//      found by linear scan (the entrymap is a redundant accelerator);
//  P4  timestamp search agrees with a linear scan over effective
//      timestamps;
//  P5  crash recovery reconstructs a state equivalent to the pre-crash
//      forced state (appends, catalog, search all agree);
//  P6  the 3.5 space bound holds: entrymap overhead per entry stays below
//      the analytic bound.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/clio/log_service.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;

struct Params {
  uint32_t block_size;
  uint16_t degree;
  int logfiles;
  size_t max_entry;   // entry sizes uniform in [1, max_entry]
  int force_percent;  // % of appends forced
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<Params>& info) {
  const Params& p = info.param;
  return "bs" + std::to_string(p.block_size) + "_N" +
         std::to_string(p.degree) + "_f" + std::to_string(p.logfiles) +
         "_e" + std::to_string(p.max_entry) + "_s" +
         std::to_string(p.seed);
}

class WorkloadTest : public ::testing::TestWithParam<Params> {
 protected:
  struct Rig {
    std::unique_ptr<SimulatedClock> clock;
    std::unique_ptr<MemoryWormDevice> media;
    std::unique_ptr<LogService> service;
    std::vector<std::string> paths;
    // Ground truth: per log file, the payloads in append order, and the
    // global append order as (path index, payload).
    std::map<std::string, std::vector<Bytes>> truth;
    std::vector<std::pair<std::string, Timestamp>> stamps;
  };

  Rig MakeRig(const Params& p) {
    Rig rig;
    rig.clock = std::make_unique<SimulatedClock>(1'000'000, 13);
    MemoryWormOptions dev;
    dev.block_size = p.block_size;
    dev.capacity_blocks = 1 << 16;
    rig.media = std::make_unique<MemoryWormDevice>(dev);
    LogServiceOptions options;
    options.entrymap_degree = p.degree;
    auto service = LogService::Create(
        std::make_unique<BorrowedDevice>(rig.media.get()), rig.clock.get(),
        options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    rig.service = std::move(service).value();
    for (int f = 0; f < p.logfiles; ++f) {
      std::string path = "/log" + std::to_string(f);
      EXPECT_TRUE(rig.service->CreateLogFile(path).ok());
      rig.paths.push_back(path);
    }
    return rig;
  }

  // Runs `count` random appends, recording ground truth.
  void RunWorkload(Rig* rig, const Params& p, int count, Rng* rng,
                   bool timestamped) {
    for (int i = 0; i < count; ++i) {
      const std::string& path = rig->paths[rng->Below(rig->paths.size())];
      Bytes payload = RandomPayload(rng, 1 + rng->Below(p.max_entry));
      WriteOptions opts;
      opts.timestamped = timestamped;
      opts.force = rng->Chance(p.force_percent, 100);
      auto result = rig->service->Append(path, payload, opts);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      rig->truth[path].push_back(payload);
      rig->stamps.emplace_back(path, result.value().timestamp);
    }
  }

  void CheckForwardScans(Rig* rig) {
    for (const auto& [path, expected] : rig->truth) {
      auto reader = rig->service->OpenReader(path);
      ASSERT_TRUE(reader.ok());
      reader.value()->SeekToStart();
      for (size_t i = 0; i < expected.size(); ++i) {
        auto record = reader.value()->Next();
        ASSERT_TRUE(record.ok()) << record.status().ToString();
        ASSERT_TRUE(record.value().has_value())
            << path << " entry " << i << " missing";
        EXPECT_EQ(ToString(record.value()->payload), ToString(expected[i]))
            << path << " entry " << i;
      }
      auto end = reader.value()->Next();
      ASSERT_TRUE(end.ok());
      EXPECT_FALSE(end.value().has_value()) << path << " has extra entries";
    }
  }

  void CheckBackwardScans(Rig* rig) {
    for (const auto& [path, expected] : rig->truth) {
      auto reader = rig->service->OpenReader(path);
      ASSERT_TRUE(reader.ok());
      reader.value()->SeekToEnd();
      for (size_t i = expected.size(); i > 0; --i) {
        auto record = reader.value()->Prev();
        ASSERT_TRUE(record.ok()) << record.status().ToString();
        ASSERT_TRUE(record.value().has_value())
            << path << " reverse entry " << i - 1 << " missing";
        EXPECT_EQ(ToString(record.value()->payload),
                  ToString(expected[i - 1]))
            << path << " reverse entry " << i - 1;
      }
      auto end = reader.value()->Prev();
      ASSERT_TRUE(end.ok());
      EXPECT_FALSE(end.value().has_value());
    }
  }
};

TEST_P(WorkloadTest, ForwardAndBackwardScansMatchTruth) {
  Params p = GetParam();
  Rng rng(p.seed);
  Rig rig = MakeRig(p);
  RunWorkload(&rig, p, 400, &rng, /*timestamped=*/false);
  CheckForwardScans(&rig);
  CheckBackwardScans(&rig);
}

TEST_P(WorkloadTest, TimestampSearchAgreesWithLinearScan) {
  Params p = GetParam();
  Rng rng(p.seed ^ 0xABCDEF);
  Rig rig = MakeRig(p);
  RunWorkload(&rig, p, 300, &rng, /*timestamped=*/true);

  // Pick random probe times; the reader positioned by SeekToTime must
  // return the same "last entry <= t" a linear scan over the ground truth
  // gives (timestamps persisted, so exact resolution).
  std::map<std::string, std::vector<std::pair<Timestamp, size_t>>> per_path;
  std::map<std::string, size_t> counters;
  for (const auto& [path, ts] : rig.stamps) {
    per_path[path].emplace_back(ts, counters[path]++);
  }
  for (int probe = 0; probe < 20; ++probe) {
    size_t pick = rng.Below(rig.stamps.size());
    Timestamp t = rig.stamps[pick].second + (rng.Chance(1, 2) ? 0 : 3);
    for (const auto& [path, entries] : per_path) {
      // Linear-scan truth.
      std::optional<size_t> want;
      for (const auto& [ts, index] : entries) {
        if (ts <= t) {
          want = index;
        }
      }
      auto reader = rig.service->OpenReader(path);
      ASSERT_TRUE(reader.ok());
      ASSERT_OK(reader.value()->SeekToTime(t));
      auto record = reader.value()->Prev();
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      if (!want.has_value()) {
        EXPECT_FALSE(record.value().has_value())
            << path << " t=" << t << ": expected nothing before t";
      } else {
        ASSERT_TRUE(record.value().has_value()) << path << " t=" << t;
        EXPECT_EQ(ToString(record.value()->payload),
                  ToString(rig.truth[path][*want]))
            << path << " t=" << t;
      }
    }
  }
}

TEST_P(WorkloadTest, RecoveryPreservesForcedState) {
  Params p = GetParam();
  Rng rng(p.seed ^ 0x5EED);
  Rig rig = MakeRig(p);
  RunWorkload(&rig, p, 250, &rng, /*timestamped=*/false);
  // Force everything so the whole truth is durable, then crash.
  ASSERT_OK(rig.service->Force());
  rig.service.reset();

  LogServiceOptions options;
  options.entrymap_degree = p.degree;
  std::vector<std::unique_ptr<WormDevice>> devices;
  devices.push_back(std::make_unique<BorrowedDevice>(rig.media.get()));
  auto recovered = LogService::Recover(std::move(devices), rig.clock.get(),
                                       options, nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  rig.service = std::move(recovered).value();
  CheckForwardScans(&rig);
  CheckBackwardScans(&rig);
}

TEST_P(WorkloadTest, SpaceOverheadRespectsBound) {
  Params p = GetParam();
  Rng rng(p.seed ^ 0x0B0E);
  Rig rig = MakeRig(p);
  RunWorkload(&rig, p, 500, &rng, /*timestamped=*/false);
  ASSERT_OK(rig.service->Force());
  SpaceAccounting space = rig.service->TotalSpace();
  size_t entries = 0;
  for (const auto& [path, v] : rig.truth) {
    entries += v.size();
  }
  // §3.5 bound with our concrete constants: entrymap node header ~14 B,
  // per-file cost 2 B id + N/8 B bitmap, one node set per N-1 blocks plus
  // the chunk-split and empty-node slack; use 2x the analytic bound as the
  // property threshold.
  double bound = 2.0 *
                 (14.0 + p.logfiles * (p.degree / 8.0 + 2.0)) /
                 (p.degree - 1.0);
  double per_entry =
      static_cast<double>(space.entrymap_bytes) / static_cast<double>(entries);
  EXPECT_LT(per_entry, bound + 1.0)
      << "entrymap overhead " << per_entry << " B/entry exceeds bound";
  // And client accounting must be exact.
  uint64_t client_bytes = 0;
  for (const auto& [path, v] : rig.truth) {
    for (const Bytes& b : v) {
      client_bytes += b.size();
    }
  }
  EXPECT_EQ(space.client_payload_bytes, client_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkloadTest,
    ::testing::Values(
        Params{512, 4, 1, 60, 0, 1},      // tiny degree, single file
        Params{512, 16, 3, 60, 0, 2},     // paper defaults, small blocks
        Params{1024, 16, 8, 120, 0, 3},   // the login-workload shape
        Params{256, 8, 4, 400, 0, 4},     // heavy fragmentation (entries
                                          // larger than blocks)
        Params{1024, 64, 2, 40, 0, 5},    // wide tree
        Params{512, 16, 3, 60, 30, 6},    // 30% forced (commit-heavy)
        Params{256, 4, 6, 200, 10, 7},    // fragmentation + forces
        Params{2048, 32, 12, 80, 5, 8}),  // many files, big blocks
    ParamName);

}  // namespace
}  // namespace clio
