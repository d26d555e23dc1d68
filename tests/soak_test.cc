// Soak test: randomized campaigns combining garbage-write injection,
// crashes at random points, recovery, and a full verifier pass. The
// paper's §2.3 robustness story, exercised end to end: whatever the faults
// do, (a) forced data survives, (b) reads never return garbage, (c) the
// volume's redundant structures stay consistent enough that the verifier
// reports no search-visible defects.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/clio/log_service.h"
#include "src/clio/verify.h"
#include "src/device/fault_injection.h"
#include "tests/test_util.h"

namespace clio {
namespace {

using testing::RandomPayload;

class SoakTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoakTest, FaultedCrashedWorkloadStaysConsistent) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  MemoryWormOptions dev;
  dev.block_size = 512;
  dev.capacity_blocks = 1 << 14;
  FaultPolicy policy;
  policy.garbage_append_per_mille = 30;  // 3% of burns deposit garbage
  auto injecting = std::make_unique<FaultInjectingWormDevice>(
      std::make_unique<MemoryWormDevice>(dev), policy, seed * 31 + 7);
  FaultInjectingWormDevice* injector = injecting.get();

  SimulatedClock clock(1'000'000, 7);
  LogServiceOptions options;
  options.entrymap_degree = 8;
  auto created = LogService::Create(
      std::make_unique<BorrowedDevice>(injector), &clock, options);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<LogService> service = std::move(created).value();

  // Disjoint log files (sublog-inclusion semantics are covered elsewhere;
  // here the ground truth tracks each file independently).
  std::vector<std::string> paths = {"/a", "/b", "/c"};
  for (const auto& path : paths) {
    ASSERT_OK(service->CreateLogFile(path).status());
  }

  // Ground truth of *forced-prefix* entries per log file: after each force,
  // everything appended so far is durable.
  std::map<std::string, std::vector<std::string>> appended;
  std::map<std::string, size_t> durable;
  int rounds = 4;
  for (int round = 0; round < rounds; ++round) {
    int ops = 60 + static_cast<int>(rng.Below(120));
    for (int i = 0; i < ops; ++i) {
      const std::string& path = paths[rng.Below(paths.size())];
      std::string data = path.substr(1) + "#" + std::to_string(round) +
                         "." + std::to_string(i);
      // Some entries straddle 2-3 blocks, so garbage burns land inside
      // fragment chains. They are forced: an unforced one may lose its
      // tail in the crash and read back truncated.
      const bool straddling = rng.Chance(1, 6);
      if (straddling) {
        data += ToString(RandomPayload(&rng, rng.Range(600, 1500)));
      }
      WriteOptions opts;
      opts.force = straddling || rng.Chance(1, 4);
      auto result = service->Append(path, AsBytes(data), opts);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      appended[path].push_back(data);
      if (opts.force) {
        for (const auto& p : paths) {
          durable[p] = appended[p].size();
        }
      }
    }
    // Crash and recover on the same (faulted) media.
    service.reset();
    std::vector<std::unique_ptr<WormDevice>> devices;
    devices.push_back(std::make_unique<BorrowedDevice>(injector));
    auto recovered =
        LogService::Recover(std::move(devices), &clock, options, nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    service = std::move(recovered).value();

    // (a)+(b): each log file replays a clean prefix of what was appended,
    // at least as long as the durable prefix, with byte-exact payloads.
    for (const auto& path : paths) {
      auto reader = service->OpenReader(path);
      ASSERT_TRUE(reader.ok());
      reader.value()->SeekToStart();
      size_t got = 0;
      while (true) {
        auto record = reader.value()->Next();
        ASSERT_TRUE(record.ok()) << record.status().ToString();
        if (!record.value().has_value()) {
          break;
        }
        ASSERT_LT(got, appended[path].size()) << path << " grew entries?";
        EXPECT_EQ(ToString(record.value()->payload), appended[path][got])
            << path << " entry " << got << " seed " << seed;
        ++got;
      }
      EXPECT_GE(got, durable[path]) << path << " lost forced data, seed "
                                    << seed;
      // Unforced suffix may be lost: truncate truth to what survived.
      appended[path].resize(got);
      durable[path] = std::min(durable[path], got);
    }
  }

  // (c): the surviving volume verifies with no search-visible defects.
  ASSERT_OK_AND_ASSIGN(VerifyReport report,
                       VerifyVolume(service->current_volume()));
  EXPECT_TRUE(report.missing_bits.empty())
      << "seed " << seed << ": " << report.missing_bits[0];
  EXPECT_TRUE(report.time_regressions.empty())
      << "seed " << seed << ": " << report.time_regressions[0];
  EXPECT_GT(injector->injected_garbage_appends(), 0u)
      << "seed " << seed << " never exercised the fault path";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace clio
